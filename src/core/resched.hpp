// Rescheduling imposed by data path synthesis (paper §4.3).
//
// Merging two modules forces their operations into distinct control steps;
// merging two registers forces their variables' lifetimes to be disjoint.
// Both are realized here by deriving, for every alive module, a total
// execution order of its operations (the "merge-sort" of the two previously
// ordered sequences) and, for every alive register, a total lifetime order
// of its variables -- then solving the resulting scheduling-constraint
// graph with a constrained-ASAP longest path.
//
// Order decisions at conflict points use the controllability/observability
// enhancement strategy:
//   SR1: reduce the sequential depth from a controllable register to an
//        observable register;
//   SR2: schedule operations to support the application of SR1.
// When the strategy does not discriminate, the order with the smallest
// increase in critical path length is chosen (paper: "If these two rules
// can not be applied, we will select the pair which results in the smallest
// increase in the length of the critical path").
//
// The order search runs on one sched::ConstraintGraph per call: the
// incumbent orders are solved once, their length is carried from conflict
// point to conflict point (only a kept swap changes it), and each candidate
// swap is solved as a local arc edit over its forward cone.  The result is
// bit-identical to re-solving the whole graph for every order compared.
// Algorithm-1 trials go further (reschedule_merger): the committed design's
// chains and solve are kept as a base, a trial edits only the chain its
// merger changes, and its register distances are the committed design's,
// updated for the merger.
//
// A trial whose merged order stays cyclic under every swap records a cycle
// certificate, which the same merger's trial in the next iteration checks
// before it solves anything (CycleCertificate).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "etpn/binding.hpp"
#include "etpn/etpn.hpp"
#include "sched/constraint_graph.hpp"
#include "sched/schedule.hpp"
#include "testability/balance.hpp"

namespace hlts::core {

/// How to resolve operation order at conflict points.
enum class OrderStrategy {
  /// SR1/SR2: prefer executing first the operation whose operand registers
  /// are closest to primary inputs (most controllable), with critical-path
  /// increase as the fallback discriminator.
  Testability,
  /// Baseline (CAMAD-style) ordering: keep the incumbent order; swap only
  /// if that is the only feasible choice or it shortens the schedule.
  Plain,
};

/// How a trial's merged constraint graph fared as far as cycles go.
enum class CycleVerdict : std::uint8_t {
  Acyclic,    ///< no cycle (the order may still be infeasible otherwise)
  Multi,      ///< two or more cyclic components: no single swap helps
  Rescued,    ///< one cyclic component, and a swap made the order acyclic
  Unrescued,  ///< one cyclic component, and no swap made it acyclic
  Certified,  ///< a cycle certificate proved the trial infeasible
};

/// What checking a trial's cycle certificate found.
enum class CertificateCheck : std::uint8_t {
  None,          ///< no certificate was checked
  Proved,        ///< the trial is infeasible; nothing was solved
  WitnessGone,   ///< a cycle the proof starts from is not in the graph
  SwapUnproved,  ///< the witness is there, but not every swap of one of
                 ///< its links was shown to leave a cycle
};

/// Proof that a trial merger's constraint graph stays cyclic under every
/// single chain swap the order search may make, so the trial is
/// infeasible.  Cycles are lists of (op, arc kind) pairs
/// (sched::ConstraintGraph::CycleArc).
///
/// - Two cyclic components (`multi`): one cycle of each.  A swap reverses
///   one chain link, which at most one of two cycles sharing no link can
///   use; the other survives as a closed walk.
/// - One component: its witness cycle C0 and, for each chain link of C0,
///   a cycle of the graph with that link swapped.  A swap that reverses no
///   link of C0 leaves C0 a closed walk (the lemma
///   sched::ConstraintGraph's swap rejection rests on); one that does
///   leaves the recorded cycle.  Register links the search never reorders
///   (a primary input first, a registered output last) need no cycle.
///
/// The check (reschedule_merger) confirms every cycle in the merged graph
/// in O(total cycle length); whatever recorded the certificate, a passing
/// check proves the trial infeasible.
struct CycleCertificate {
  using CycleArc = sched::ConstraintGraph::CycleArc;
  /// The cycles back to back: cycle k ends at ends[k].  Cycle 0 is C0, or
  /// a cycle of the first component; cycle 1 is then one of the second.
  std::vector<CycleArc> arcs;
  std::vector<std::uint32_t> ends;
  bool multi = false;
  /// One component: per arc j of C0, the cycle (>= 1) recorded with that
  /// link swapped, or 0.
  std::vector<std::uint32_t> swapped;

  [[nodiscard]] std::span<const CycleArc> cycle(std::size_t k) const;
  /// Appends a cycle and returns its index.
  std::uint32_t add(std::span<const CycleArc> cycle);
  void clear();
};

struct ReschedOutcome {
  bool feasible = false;
  sched::Schedule schedule;
  CycleVerdict cycles = CycleVerdict::Acyclic;
  CertificateCheck check = CertificateCheck::None;
  /// Set when cycles alone make the trial infeasible (Multi, Unrescued or
  /// Certified) and a certificate proves it: what the same merger's trial
  /// checks first in the next iteration.
  std::shared_ptr<const CycleCertificate> certificate;
};

/// Derives a feasible schedule for the (possibly just-merged) binding `b`,
/// staying close to the previous schedule `hint`.  Returns infeasible when
/// the binding's constraints are cyclic (the attempted merger must then be
/// rejected).
///
/// The SR1/SR2 ordering refinement needs the register-distance profile of
/// `b`'s data path.  By default an ETPN for `b` is built internally just for
/// that; callers that already hold a materialized (e.g. merge-patched) ETPN
/// of `b` pass it as `premerged` to skip the rebuild -- register distances
/// ignore step annotations, so a structurally up-to-date graph with stale
/// steps yields the identical schedule.
[[nodiscard]] ReschedOutcome reschedule(const dfg::Dfg& g,
                                        const etpn::Binding& b,
                                        const sched::Schedule& hint,
                                        OrderStrategy strategy,
                                        const etpn::Etpn* premerged = nullptr);

/// The base a trial merger edits: `b`'s chains, sorted by `hint`, solved
/// in `graph` over the shared DFG `tables` (which must outlive the graph's
/// use of them).  Built once per Algorithm-1 iteration per workspace, from
/// the committed binding and schedule.
void build_trial_base(const dfg::Dfg& g, const sched::ConstraintTables& tables,
                      const etpn::Binding& b, const sched::Schedule& hint,
                      sched::ConstraintGraph& graph);

/// Where a trial merger's SR1/SR2 keys read register distances: the
/// committed design's ETPN and its RegisterReach, updated for the merger
/// (etpn::RegisterReach::merged_d_in) into the caller's buffers on first
/// use.  The merged data path itself is never needed.
struct MergerDistances {
  const etpn::Etpn& committed;
  const etpn::RegisterReach& reach;
  std::vector<int>& d_in;
  std::vector<std::uint32_t>& queue;
};

/// reschedule(g, b, hint, strategy) for `b` = the base's binding with
/// `cand` applied, computed by editing the base in `graph` (see
/// build_trial_base): only the merged chain changes, only the forward cone
/// of its changed links is re-solved, and `graph` is restored to the base
/// on return.  `dist` must describe the base's committed design.
/// Bit-identical to the stand-alone overload, whose binding check it
/// leaves to the caller (a schedule over the latency bound is never used).
///
/// With a `certificate` (of an earlier trial of the same merger), the
/// merged chain is first only linked and the certificate checked; when it
/// proves the trial infeasible, that is the outcome (cycles Certified), and
/// nothing is solved.  The verdict is the same either way.
[[nodiscard]] ReschedOutcome reschedule_merger(
    const dfg::Dfg& g, const etpn::Binding& b, const sched::Schedule& hint,
    OrderStrategy strategy, const MergerDistances& dist,
    const testability::MergeCandidate& cand, sched::ConstraintGraph& graph,
    const std::shared_ptr<const CycleCertificate>& certificate = nullptr);

/// Validation helper: true when `s` is consistent with `b` -- no two ops of
/// one module share a step, and all variables of one register have pairwise
/// disjoint lifetimes.  Sorts each group's steps (lifetimes) and compares
/// neighbours, in buffers each thread reuses across calls.
[[nodiscard]] bool schedule_respects_binding(const dfg::Dfg& g,
                                             const etpn::Binding& b,
                                             const sched::Schedule& s);

}  // namespace hlts::core
