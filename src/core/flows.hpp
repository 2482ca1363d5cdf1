// The four synthesis flows compared in the paper's §5.
//
//   CAMAD      -- transformational synthesis without testability: the same
//                 merger loop driven by connectivity/closeness;
//   Approach 1 -- force-directed scheduling (FDS) followed by left-edge
//                 allocation, no testability consideration in scheduling;
//   Approach 2 -- Lee's mobility-path scheduling followed by the modified
//                 left-edge allocation with testability rules;
//   Ours       -- Algorithm 1: integrated scheduling/allocation with the
//                 C/O balance principle and SR1/SR2 rescheduling.
#pragma once

#include <string>
#include <vector>

#include "core/synthesis.hpp"

namespace hlts::core {

enum class FlowKind { Camad, Approach1, Approach2, Ours };

[[nodiscard]] const char* flow_name(FlowKind kind);

// FlowParams is the shared AlgorithmOptions knob set (see core/options.hpp);
// SynthesisParams embeds the same struct, so the two APIs can no longer
// drift apart.

/// The uniform result record the benches print.
struct FlowResult {
  FlowKind kind = FlowKind::Ours;
  std::string name;
  sched::Schedule schedule;
  etpn::Binding binding;
  int exec_time = 0;        ///< control steps
  int registers = 0;
  int modules = 0;
  int muxes = 0;
  int self_loops = 0;
  cost::HardwareCost cost;
  double balance_index = 0;        ///< mean min(C, O) over data path nodes
  int seq_depth_max = 0;           ///< SR1 metric
  int seq_depth_total = 0;
  /// Table-style allocation strings ("(*): N21, N24" / "R: a, c, x").
  std::vector<std::string> module_allocation;
  std::vector<std::string> register_allocation;

  // --- anytime bookkeeping (see core/options.hpp) ---------------------------
  /// Full for a naturally terminated run; Partial when the Algorithm-1 loop
  /// stopped early (cancel, timeout, budget, graceful degradation).  The
  /// non-iterative flows (Approach 1/2) are always Full.
  Completeness completeness = Completeness::Full;
  /// Committed Algorithm-1 mergers behind this result (0 for Approach 1/2).
  int iterations = 0;
  /// Why the run stopped: "converged" / "cancelled" / "iteration_budget" /
  /// "memory_budget" / "degraded: ..." for Camad/Ours, "complete" for the
  /// one-shot flows.
  std::string stop_reason = "complete";
};

/// The Algorithm-1 parameters a Camad or Ours run uses: the shared knob set
/// plus the flow's selection policy, rescheduling order, module
/// compatibility and termination rule.  Throws Error(Input) for Approach
/// 1/2, which do not run Algorithm 1.
[[nodiscard]] SynthesisParams synthesis_params(FlowKind kind,
                                               const FlowParams& params);

/// Runs one flow end to end on a DFG.
[[nodiscard]] FlowResult run_flow(FlowKind kind, const dfg::Dfg& g,
                                  const FlowParams& params = {});

/// Runs all four flows (the order used in the paper's tables).
[[nodiscard]] std::vector<FlowResult> run_all_flows(const dfg::Dfg& g,
                                                    const FlowParams& params = {});

}  // namespace hlts::core
