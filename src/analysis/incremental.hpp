// Incremental analysis layer for Algorithm 1's per-trial evaluation.
//
// The synthesis loop evaluates hundreds of candidate mergers per iteration
// and commits one.  Trials are the hot path, so they patch a copy of the
// committed design in place instead of rebuilding it:
//
//   - TrialWorkspace: a per-worker binding + ETPN copy of the committed
//     design that candidate mergers are applied to in place;
//   - BindingMerge / DataPathMerge: RAII application of one candidate's
//     binding merge and data-path merge patch (etpn::apply_merge_patch),
//     undone on destruction.  A trial merges the binding, reschedules,
//     and patches the data path only if it gets as far as the cost
//     estimate; DesignDelta applies both halves at once;
//   - IncrementalContext: owner of the committed design's data path and
//     testability fixpoint, derived from scratch once per commit, and of its
//     hardware cost, which is the winning trial's own estimate.
//
// Bit-identity contract: every number this layer produces (trial costs,
// schedules, testability measures, balance indices, critical paths) is
// bit-identical to the from-scratch pipeline, for every benchmark, thread
// count and flow configuration.  That pipeline is kept as a test oracle
// (tests/support/reference_synthesis.hpp), which `ctest -L incremental`
// replays every Algorithm-1 iteration against.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cost/cost.hpp"
#include "etpn/binding.hpp"
#include "etpn/etpn.hpp"
#include "etpn/patch.hpp"
#include "sched/constraint_graph.hpp"
#include "sched/schedule.hpp"
#include "testability/balance.hpp"
#include "testability/testability.hpp"
#include "util/arena.hpp"

namespace hlts::analysis {

/// Per-worker trial state: a private copy of the committed design (its
/// binding and data path) that merge patches are applied to and undone
/// from, plus reusable
/// rescheduling and cost buffers.  Copies are refreshed lazily (epoch
/// check) on checkout, so the steady-state cost of a trial is one merge
/// patch, not one design copy.
struct TrialWorkspace {
  etpn::Binding binding;
  etpn::Etpn etpn;
  /// The rescheduler's constraint graph.  Between trials it holds the base
  /// of the committed design (core::build_trial_base), which a trial edits
  /// and restores (core::reschedule_merger).
  sched::ConstraintGraph resched;
  /// Committed-design epoch the base in `resched` was built for; 0 = none.
  std::uint64_t resched_epoch = 0;
  /// The trial merger's register distances and their update's worklist
  /// (core::MergerDistances).
  std::vector<int> d_in;
  std::vector<std::uint32_t> d_queue;
  cost::CostScratch cost;
  /// Backs the trial's merge-patch undo log and worklists; reset (not
  /// freed) when the DataPathMerge comes off, so a steady-state trial
  /// carves from retained blocks and performs zero heap allocations.
  util::Arena arena;
  /// Committed-design epoch this copy mirrors; 0 = never synchronized
  /// (also the stale sentinel set when a failed trial may have left the
  /// copy inconsistent).
  std::uint64_t epoch = 0;
};

/// RAII binding merge of one candidate on a workspace: ws.binding is the
/// merged binding while alive.  Strong guarantee on construction (the
/// merge's failpoint fires before any mutation); a destructor whose undo
/// fails marks the workspace stale for re-sync instead of throwing.
class BindingMerge {
 public:
  BindingMerge(const dfg::Dfg& g, TrialWorkspace& ws,
               const testability::MergeCandidate& cand);
  ~BindingMerge();
  BindingMerge(const BindingMerge&) = delete;
  BindingMerge& operator=(const BindingMerge&) = delete;

 private:
  TrialWorkspace& ws_;
  testability::MergeCandidate cand_;
  std::size_t into_old_size_ = 0;
};

/// RAII data-path merge patch of one candidate on a workspace: ws.etpn's
/// data path is the merged one while alive -- with stale step annotations,
/// which no structural consumer (cost, testability) reads; see
/// etpn/patch.hpp.  Strong guarantee on construction.
class DataPathMerge {
 public:
  DataPathMerge(TrialWorkspace& ws, const testability::MergeCandidate& cand);
  ~DataPathMerge();
  DataPathMerge(const DataPathMerge&) = delete;
  DataPathMerge& operator=(const DataPathMerge&) = delete;

 private:
  TrialWorkspace& ws_;
  etpn::MergePatch patch_;
};

/// Both halves of one candidate merger on a workspace: the binding merge
/// and the data-path merge patch go on in the constructor and come off, in
/// reverse order, in the destructor.  While alive, ws.binding and ws.etpn
/// *are* the merged design (with stale step annotations).  On a throw the
/// workspace is unchanged, or marked stale for re-sync.
class DesignDelta {
 public:
  DesignDelta(const dfg::Dfg& g, TrialWorkspace& ws,
              const testability::MergeCandidate& cand)
      : binding_(g, ws, cand), data_path_(ws, cand) {}

 private:
  BindingMerge binding_;
  DataPathMerge data_path_;
};

/// Owner of the committed design's analysis state.
///
/// attach() and commit() derive it the same way: a fresh
/// etpn::build_data_path of the committed (schedule, binding) -- the data
/// path and node maps, no control part, which nothing in the loop reads --
/// a full testability fixpoint of it and, when the context was built for
/// SR2's register distances, its etpn::RegisterReach.  attach() then
/// estimates the hardware cost; commit() takes over the cost the winning
/// trial measured on the same merged data path.  The
/// constraint-graph tables of the DFG are built once, at construction, and
/// shared by every workspace's rescheduler.  A commit that throws poisons
/// the context: the design state may be half-replaced, and every subsequent
/// call fails fast -- callers absorb the fault at an iteration boundary and
/// never touch the context again.
class IncrementalContext {
 public:
  /// `register_reach`: derive the committed register distances, which only
  /// the SR2 keys of the testability order strategy read.
  IncrementalContext(const dfg::Dfg& g, const cost::ModuleLibrary& lib,
                     int bits, bool register_reach = false);
  IncrementalContext(const IncrementalContext&) = delete;
  IncrementalContext& operator=(const IncrementalContext&) = delete;

  /// Derives the analysis state of a committed design and estimates its
  /// cost.
  void attach(const sched::Schedule& s, const etpn::Binding& b);

  /// The committed design's data path, a fresh build_data_path (no
  /// tombstones).
  [[nodiscard]] const etpn::Etpn& etpn() const { return e_; }
  /// The committed design's testability fixpoint over etpn().
  [[nodiscard]] const testability::TestabilityAnalysis& analysis() const {
    return *analysis_;
  }
  [[nodiscard]] const etpn::Binding& binding() const { return b_; }
  /// The committed data path's register distances and hop graph, which a
  /// trial's rescheduler updates for its merger.  Unbuilt (reading it
  /// fails) unless the context was constructed with `register_reach`.
  [[nodiscard]] const etpn::RegisterReach& reach() const { return reach_; }
  /// Hardware cost of the committed design.
  [[nodiscard]] const cost::HardwareCost& cost() const { return cost_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// The DFG's constraint-graph tables, shared by every trial rescheduler.
  [[nodiscard]] const sched::ConstraintTables& tables() const {
    return tables_;
  }

  /// Moves the context to the design after the winning merger.  `b_after`,
  /// `s_after` and `cost_after` are the already-merged binding, its
  /// reschedule and the hardware cost the winning trial estimated over its
  /// merge-patched data path (a floorplan of the tombstoned graph equals
  /// one of a fresh build, so it is not re-run).  The caller commits them
  /// to its own result only after this returns, so a throw here leaves the
  /// caller's checkpoint intact (and this context poisoned).
  void commit(const etpn::Binding& b_after, const sched::Schedule& s_after,
              const cost::HardwareCost& cost_after);

  /// Checks a workspace out of the reuse pool (or creates one), synced to
  /// the current epoch.  Thread-safe; called from trial-pool workers.
  [[nodiscard]] std::unique_ptr<TrialWorkspace> checkout();
  /// Returns a workspace to the pool for reuse.
  void checkin(std::unique_ptr<TrialWorkspace> ws);

 private:
  /// The derivation attach() and commit() share: stores (s, b) and builds
  /// their data path, testability fixpoint and, if asked for, register
  /// reach.
  void derive(const sched::Schedule& s, const etpn::Binding& b);
  void refresh(TrialWorkspace& ws) const;

  const dfg::Dfg& g_;
  const cost::ModuleLibrary& lib_;
  int bits_;
  bool register_reach_;
  std::uint64_t epoch_ = 0;  ///< bumped by attach() and every commit()
  bool poisoned_ = false;
  etpn::Binding b_;
  sched::Schedule s_;
  cost::HardwareCost cost_;
  etpn::Etpn e_;  ///< analysis_ refers to it; the context never moves
  std::optional<testability::TestabilityAnalysis> analysis_;
  etpn::RegisterReach reach_;
  sched::ConstraintTables tables_;
  std::mutex pool_mutex_;
  std::vector<std::unique_ptr<TrialWorkspace>> pool_;
};

}  // namespace hlts::analysis
