// Test oracle for Algorithm 1: one merger iteration computed from scratch.
//
// core::integrated_synthesis evaluates trials as merge patches over
// persistent workspaces, reschedules them by editing a per-iteration base
// constraint graph, and takes the committed cost over from the winning
// trial (see analysis/incremental.hpp).  The functions here compute the
// same iteration the plain way -- a fresh build_etpn and
// TestabilityAnalysis of the committed design, a binding copy + reschedule
// + build_etpn + estimate_cost per trial, a serial walk of the ranking --
// and
// replay_against_reference() checks every iteration of a real run against
// it bit for bit.  The rescheduler and cost estimate it calls are the
// frozen copies in reference_layers.hpp, not the production ones, so a
// divergence in either production layer shows up here.  The oracle covers
// the exact Algorithm 1 only: the trial cache and the memory budget are
// out of its scope.
#pragma once

#include <optional>

#include "core/flows.hpp"
#include "core/synthesis.hpp"
#include "dfg/dfg.hpp"
#include "etpn/binding.hpp"
#include "sched/schedule.hpp"
#include "testability/balance.hpp"

namespace hlts::test_support {

/// One trial evaluated from scratch: the candidate applied to a copy of
/// `base`, rescheduled from `hint` (no premerged graph), and costed over a
/// fresh build_etpn of the merged design.
struct ReferenceTrial {
  bool feasible = false;  ///< reschedulable within `max_latency`
  etpn::Binding binding;  ///< the merged binding (set even when infeasible)
  sched::Schedule schedule;
  int exec_time = 0;
  double hw_cost = 0;
};

[[nodiscard]] ReferenceTrial reference_trial(
    const dfg::Dfg& g, const core::SynthesisParams& p,
    const etpn::Binding& base, const sched::Schedule& hint,
    const testability::MergeCandidate& cand, int max_latency);

/// The merger one Algorithm-1 iteration commits from a committed design.
struct ReferenceStep {
  core::IterationRecord record;
  sched::Schedule schedule;  ///< the design after the merger
  etpn::Binding binding;
};

/// One iteration of Algorithm 1 from (schedule, binding), computed from
/// scratch: rank the candidates, walk the ranking serially until k trials
/// are feasible, and take the smallest dC (ties within 1e-12 keep the
/// better-ranked candidate).  Returns nullopt where the loop converges: no
/// candidate, no feasible merger, or -- under require_improvement -- no
/// merger that lowers the cost.
[[nodiscard]] std::optional<ReferenceStep> reference_step(
    const dfg::Dfg& g, const core::SynthesisParams& p,
    const sched::Schedule& schedule, const etpn::Binding& binding);

/// Runs integrated_synthesis(g, p) with a checkpoint after every commit and
/// replays reference_step() from each previous checkpoint, recording a
/// gtest failure unless the run's IterationRecord, next checkpoint and stop
/// reason are bit-identical to the reference.  `p` must have trial_cache
/// off, no memory budget and no resume point.  Returns the run's result.
core::SynthesisResult replay_against_reference(const dfg::Dfg& g,
                                               core::SynthesisParams p);

/// replay_against_reference() over the Algorithm-1 run of a Camad or Ours
/// flow (core::synthesis_params).  Approach 1/2 run no merger loop; for
/// them this checks that run_flow reports no iteration.
void replay_flow_against_reference(core::FlowKind kind, const dfg::Dfg& g,
                                   const core::FlowParams& params);

}  // namespace hlts::test_support
