// Incremental analysis layer for Algorithm 1's per-trial evaluation.
//
// The synthesis loop evaluates hundreds of candidate mergers per iteration;
// historically every trial rebuilt the full ETPN and re-ran every analysis
// from scratch.  This layer replaces that with explicit dirty-set
// propagation over a persistent design state:
//
//   - TrialWorkspace: a per-worker binding + ETPN copy of the committed
//     design that candidate mergers are applied to in place;
//   - DesignDelta: RAII application of one candidate (copy-on-write
//     binding merge + etpn::apply_merge_patch), undone on destruction;
//   - IncrementalContext: owner of the committed design's persistent ETPN,
//     testability fixpoint, Petri-net critical path and floorplan cost,
//     each re-derived at commit time only over the merger's dirty cone.
//
// Bit-identity contract: every number this layer produces (trial costs,
// schedules, testability measures, balance indices, critical paths) is
// bit-identical to the from-scratch pipeline it replaces, for every
// benchmark, thread count and flow configuration.  That pipeline is kept
// only as a test oracle (tests/support/reference_synthesis.hpp), which
// `ctest -L incremental` replays every Algorithm-1 iteration against.
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
#include "petri/petri.hpp"
#include "sched/schedule.hpp"
#include "testability/balance.hpp"
#include "testability/testability.hpp"
#include "util/arena.hpp"

namespace hlts::analysis {

/// Per-worker trial state: a private copy of the committed design that
/// merge patches are applied to and undone from, plus reusable cost
/// buffers.  Copies are refreshed lazily (epoch check) on checkout, so the
/// steady-state cost of a trial is one merge patch, not one design copy.
struct TrialWorkspace {
  etpn::Binding binding;
  etpn::Etpn etpn;
  cost::CostScratch cost;
  /// Backs the trial's merge-patch undo log and worklists; reset (not
  /// freed) when the DesignDelta comes off, so a steady-state trial carves
  /// from retained blocks and performs zero heap allocations.
  util::Arena arena;
  /// Committed-design epoch this copy mirrors; 0 = never synchronized
  /// (also the stale sentinel set when a failed trial may have left the
  /// copy inconsistent).
  std::uint64_t epoch = 0;
};

/// RAII application of one candidate merger onto a workspace: the binding
/// merge and the data-path merge patch go on in the constructor and come
/// off, in reverse order, in the destructor.  While alive, ws.binding and
/// ws.etpn *are* the merged design -- with stale step annotations, which
/// no structural consumer (rescheduling, cost, testability) reads; see
/// etpn/patch.hpp.
class DesignDelta {
 public:
  /// Strong guarantee: on throw the workspace is unchanged (or marked
  /// stale for re-sync when the underlying merge could not roll back).
  DesignDelta(const dfg::Dfg& g, TrialWorkspace& ws,
              const testability::MergeCandidate& cand);
  ~DesignDelta();
  DesignDelta(const DesignDelta&) = delete;
  DesignDelta& operator=(const DesignDelta&) = delete;

  [[nodiscard]] const etpn::MergePatch& patch() const { return patch_; }

 private:
  TrialWorkspace& ws_;
  testability::MergeCandidate cand_;
  std::size_t into_old_size_ = 0;
  etpn::MergePatch patch_;
};

/// Owner of the committed design's analysis state, updated incrementally
/// at every committed merger instead of rebuilt from scratch.
///
/// Lifecycle: attach() performs the one full build (ETPN + testability
/// fixpoint + cost); each commit() then patches the persistent ETPN in
/// place, re-stamps its step annotations from the post-merge schedule,
/// re-checks the Petri-net critical path (cached on the control part's
/// structural signature), cone-updates the testability fixpoint and
/// re-costs the tombstoned graph.  A commit that throws poisons the
/// context: the design state may be half-patched, and every subsequent
/// call fails fast -- callers absorb the fault at an iteration boundary
/// and never touch the context again.
class IncrementalContext {
 public:
  IncrementalContext(const dfg::Dfg& g, const cost::ModuleLibrary& lib,
                     int bits);
  IncrementalContext(const IncrementalContext&) = delete;
  IncrementalContext& operator=(const IncrementalContext&) = delete;

  /// Full (non-incremental) build of the analysis state for a committed
  /// design; the one place build_etpn + the full fixpoint still run.
  void attach(const sched::Schedule& s, const etpn::Binding& b);

  /// The persistent ETPN of the committed design.  Merged-away nodes and
  /// arcs are tombstones (etpn::DataPath::alive); all consumers skip them.
  [[nodiscard]] const etpn::Etpn& etpn() const { return *e_; }
  /// The committed design's testability fixpoint, maintained by cone
  /// updates; equals a from-scratch TestabilityAnalysis of etpn().
  [[nodiscard]] const testability::TestabilityAnalysis& analysis() const {
    return *analysis_;
  }
  [[nodiscard]] const etpn::Binding& binding() const { return b_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  struct CommitResult {
    cost::HardwareCost cost;  ///< hardware cost of the post-merge design
    testability::TestabilityAnalysis::UpdateStats stats;
  };

  /// Applies the winning merger to the persistent state.  `b_after` and
  /// `s_after` are the already-merged binding and its reschedule; the
  /// caller commits them to its own result only after this returns, so a
  /// throw here leaves the caller's checkpoint intact (and this context
  /// poisoned).
  CommitResult commit(const testability::MergeCandidate& cand,
                      const etpn::Binding& b_after,
                      const sched::Schedule& s_after);

  /// Checks a workspace out of the reuse pool (or creates one), synced to
  /// the current epoch.  Thread-safe; called from trial-pool workers.
  [[nodiscard]] std::unique_ptr<TrialWorkspace> checkout();
  /// Returns a workspace to the pool for reuse.
  void checkin(std::unique_ptr<TrialWorkspace> ws);

 private:
  void refresh(TrialWorkspace& ws) const;

  const dfg::Dfg& g_;
  const cost::ModuleLibrary& lib_;
  int bits_;
  std::uint64_t epoch_ = 0;  ///< bumped by attach() and every commit()
  bool poisoned_ = false;
  etpn::Binding b_;
  sched::Schedule s_;
  std::unique_ptr<etpn::Etpn> e_;  ///< stable address for analysis_'s ref
  std::optional<testability::TestabilityAnalysis> analysis_;
  petri::IncrementalCriticalPath critical_path_;
  cost::CostScratch cost_scratch_;
  util::Arena commit_arena_;  ///< backs commit()'s (never-reverted) patch
  std::mutex pool_mutex_;
  std::vector<std::unique_ptr<TrialWorkspace>> pool_;
};

}  // namespace hlts::analysis
