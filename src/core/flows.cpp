#include "core/flows.hpp"

#include <cstdlib>
#include <string>

#include "alloc/alloc.hpp"
#include "core/validate.hpp"
#include "sched/fds.hpp"
#include "sched/mobility_path.hpp"
#include "util/error.hpp"
#include "util/trace.hpp"

namespace hlts::core {

const char* flow_name(FlowKind kind) {
  switch (kind) {
    case FlowKind::Camad: return "CAMAD";
    case FlowKind::Approach1: return "Approach 1";
    case FlowKind::Approach2: return "Approach 2";
    case FlowKind::Ours: return "Ours";
  }
  return "?";
}

const char* completeness_name(Completeness c) {
  switch (c) {
    case Completeness::Full: return "full";
    case Completeness::Partial: return "partial";
  }
  return "?";
}

SynthesisParams synthesis_params(FlowKind kind, const FlowParams& params) {
  SynthesisParams p;
  static_cast<AlgorithmOptions&>(p) = params;
  switch (kind) {
    case FlowKind::Camad:
      p.policy = SelectionPolicy::Connectivity;
      p.order = OrderStrategy::Plain;
      p.compat = etpn::ModuleCompat::AluClass;  // CAMAD's combined (+-) ALUs
      p.require_improvement = true;  // conventional cost-driven termination
      return p;
    case FlowKind::Ours:
      p.policy = SelectionPolicy::BalanceTestability;
      p.order = OrderStrategy::Testability;
      return p;
    case FlowKind::Approach1:
    case FlowKind::Approach2:
      break;
  }
  throw Error(std::string(flow_name(kind)) + " does not run Algorithm 1",
              ErrorKind::Input);
}

namespace {

FlowResult finalize(FlowKind kind, const dfg::Dfg& g, sched::Schedule schedule,
                    etpn::Binding binding, const FlowParams& params,
                    Completeness completeness = Completeness::Full,
                    int iterations = 0, std::string stop_reason = "complete") {
  HLTS_SPAN("flow.finalize");  // ETPN rebuild + cost + testability metrics
  FlowResult r;
  r.kind = kind;
  r.name = flow_name(kind);
  r.schedule = std::move(schedule);
  r.binding = std::move(binding);
  r.completeness = completeness;
  r.iterations = iterations;
  r.stop_reason = std::move(stop_reason);
  r.exec_time = r.schedule.length();
  r.registers = r.binding.num_alive_regs();
  r.modules = r.binding.num_alive_modules();

  etpn::Etpn e = etpn::build_etpn(g, r.schedule, r.binding);
  r.muxes = e.data_path.mux_count();
  r.self_loops = e.data_path.self_loop_count();
  r.cost = cost::estimate_cost(e.data_path, params.library, params.bits);
  testability::TestabilityAnalysis analysis(e.data_path);
  r.balance_index = analysis.balance_index();
  const auto depth = e.data_path.sequential_depth();
  r.seq_depth_max = depth.max_depth;
  r.seq_depth_total = depth.total_depth;

  for (etpn::ModuleId m : r.binding.alive_modules()) {
    r.module_allocation.push_back(r.binding.module_label(g, m));
  }
  for (etpn::RegId reg : r.binding.alive_regs()) {
    r.register_allocation.push_back(r.binding.reg_label(g, reg));
  }
  if (params.audit) {
    enforce_audit(audit_design(g, r.schedule, r.binding), "flow.finalize");
    enforce_audit(audit_etpn(g, e, r.binding), "flow.finalize.etpn");
  }
  return r;
}

}  // namespace

FlowResult run_flow(FlowKind kind, const dfg::Dfg& g, const FlowParams& params) {
  util::ScopedSpan flow_span(flow_name(kind));
  switch (kind) {
    case FlowKind::Approach1: {
      const int latency = params.max_latency > 0 ? params.max_latency
                                                 : g.critical_path_ops() + 1;
      sched::Schedule s;
      {
        HLTS_SPAN("schedule.fds");
        s = sched::force_directed_schedule(g, {.latency = latency});
      }
      etpn::Binding b = alloc::allocate(g, s, {.lee_rules = false});
      return finalize(kind, g, std::move(s), std::move(b), params);
    }
    case FlowKind::Approach2: {
      const int latency = params.max_latency > 0 ? params.max_latency
                                                 : g.critical_path_ops() + 1;
      sched::Schedule s;
      {
        HLTS_SPAN("schedule.mobility_path");
        s = sched::mobility_path_schedule(g, {.latency = latency});
      }
      etpn::Binding b = alloc::allocate(g, s, {.lee_rules = true});
      return finalize(kind, g, std::move(s), std::move(b), params);
    }
    case FlowKind::Camad:
    case FlowKind::Ours: {
      SynthesisResult s =
          integrated_synthesis(g, synthesis_params(kind, params));
      return finalize(kind, g, std::move(s.schedule), std::move(s.binding),
                      params, s.completeness, s.iterations,
                      std::move(s.stop_reason));
    }
  }
  throw Error("unknown flow kind", ErrorKind::Input);
}

std::vector<FlowResult> run_all_flows(const dfg::Dfg& g,
                                      const FlowParams& params) {
  std::vector<FlowResult> out;
  for (FlowKind kind : {FlowKind::Camad, FlowKind::Approach1,
                        FlowKind::Approach2, FlowKind::Ours}) {
    out.push_back(run_flow(kind, g, params));
  }
  return out;
}

}  // namespace hlts::core
