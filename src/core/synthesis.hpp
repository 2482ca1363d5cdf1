// Algorithm 1: the integrated scheduling/allocation test synthesis loop.
//
//   1  perform a simple default scheduling/allocation
//   2  repeat
//   4    run the testability analysis algorithm
//   6    select k pairs of mergable nodes (C/O balance principle)
//   8-9  estimate dE and dH for each pair
//  11    select the pair with smallest dC = alpha*dE + beta*dH
//  12    merge it and modify the data path
//  13-14 lifetime analysis + rescheduling (merge-sort, C/O enhancement)
//  15  until no merger exists
//
// "No merger exists" is interpreted as "no feasible merger improves the
// cost function": mergers strictly reduce hardware but may lengthen the
// schedule, so the loop stops at the (alpha, beta)-weighted sweet spot.
// The same loop with a connectivity-based pair selection and plain ordering
// reproduces the CAMAD baseline (conventional closeness-driven allocation).
#pragma once

#include <string>
#include <vector>

#include "cost/cost.hpp"
#include "core/options.hpp"
#include "core/resched.hpp"
#include "etpn/etpn.hpp"
#include "testability/balance.hpp"

namespace hlts::core {

/// How merger candidates are ranked.
enum class SelectionPolicy {
  /// Controllability/observability balance (paper §3) -- "ours".
  BalanceTestability,
  /// Shared-neighbour connectivity ("closeness") -- the conventional
  /// allocation the paper contrasts with (CAMAD baseline).
  Connectivity,
};

/// Algorithm-level parameter set: the shared knob set (see options.hpp for
/// its documentation) plus the policy switches that distinguish the paper's
/// Algorithm 1 from the CAMAD baseline.
struct SynthesisParams : AlgorithmOptions {
  /// Direct algorithm-level runs default to a narrower candidate beam
  /// (k = 3, the paper's §5 setting) than the flow-level default.
  SynthesisParams() { k = 3; }

  SelectionPolicy policy = SelectionPolicy::BalanceTestability;
  OrderStrategy order = OrderStrategy::Testability;
  /// Module sharing rule: CAMAD merges add/sub/compare into combined (+-)
  /// ALUs; the Lee-style flows and ours keep kinds separate.
  etpn::ModuleCompat compat = etpn::ModuleCompat::ExactKind;
  testability::BalanceOptions balance;
  // max_iterations lives in the shared AlgorithmOptions knob set.
  /// When true, the loop additionally stops as soon as no candidate
  /// *improves* dC (conventional cost-driven synthesis, i.e. the CAMAD
  /// baseline).  When false -- the paper's Algorithm 1 -- merging continues
  /// until no feasible merger exists, with dC only ranking the candidates.
  bool require_improvement = false;
};

/// Scale of the dH term: hardware cost differences are expressed in units
/// of this many mm^2, so that alpha and beta trade off one control step
/// against one small-module-sized piece of area.
inline constexpr double kAreaUnit = 0.01;

struct SynthesisResult {
  sched::Schedule schedule;
  etpn::Binding binding;
  int exec_time = 0;
  cost::HardwareCost cost;
  std::vector<IterationRecord> trajectory;

  // --- anytime bookkeeping --------------------------------------------------
  /// Full when the merger loop reached natural termination ("no merger
  /// exists"); Partial when it stopped early.  Either way schedule/binding
  /// are a complete, validated design.
  Completeness completeness = Completeness::Full;
  /// Committed mergers behind this result; the checkpoint it represents.
  /// Equals trajectory.size() for a from-scratch run; a run resumed from a
  /// checkpoint counts its starting iterations too (resume_from->iteration
  /// + trajectory.size()), so the total matches the uninterrupted run.  A
  /// Partial result at iteration k is bit-identical to a run with
  /// max_iterations = k.
  int iterations = 0;
  /// Why the loop stopped: "converged", "cancelled", "iteration_budget",
  /// "memory_budget", or "degraded: <message>" when a transient fault
  /// (injected failpoint, allocation failure) was absorbed at an iteration
  /// boundary.
  std::string stop_reason = "converged";
};

/// Runs the iterative synthesis.  The initial "simple default
/// scheduling/allocation" is ASAP with the identity binding.
[[nodiscard]] SynthesisResult integrated_synthesis(const dfg::Dfg& g,
                                                   const SynthesisParams& p);

/// Connectivity-based candidate ranking used by the CAMAD baseline: pairs
/// sharing many sources/destinations score high (merging them minimizes
/// interconnect), ignoring testability entirely; pairs sharing nothing are
/// left out.  Returns the first `k`.
[[nodiscard]] std::vector<testability::MergeCandidate>
select_connectivity_candidates(const dfg::Dfg& g, const etpn::Binding& b,
                               const etpn::Etpn& e, int k);

}  // namespace hlts::core
