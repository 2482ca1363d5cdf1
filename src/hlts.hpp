// Umbrella header: the public API of the hlts library.
//
// Typical use:
//
//   #include "hlts.hpp"
//
//   hlts::dfg::Dfg g = hlts::frontend::compile(spec_source);
//   hlts::core::FlowResult r =
//       hlts::core::run_flow(hlts::core::FlowKind::Ours, g, {.bits = 8});
//   hlts::rtl::RtlDesign rtl =
//       hlts::rtl::RtlDesign::from_synthesis(g, r.schedule, r.binding, 8);
//   hlts::rtl::Elaboration elab = hlts::rtl::elaborate(rtl);
//   hlts::atpg::AtpgResult test = hlts::atpg::run_atpg(elab.netlist,
//                                                      rtl.steps() + 1);
//
// Individual subsystem headers can of course be included directly; this
// header simply pulls in every public entry point.
#pragma once

// Behavioral level.
#include "benchmarks/benchmarks.hpp"
#include "dfg/dfg.hpp"
#include "frontend/parser.hpp"

// Scheduling and allocation.
#include "alloc/alloc.hpp"
#include "sched/constraint_graph.hpp"
#include "sched/fds.hpp"
#include "sched/lifetime.hpp"
#include "sched/list_sched.hpp"
#include "sched/mobility_path.hpp"
#include "sched/schedule.hpp"

// Design representation and analysis.
#include "etpn/binding.hpp"
#include "etpn/datapath.hpp"
#include "etpn/etpn.hpp"
#include "testability/balance.hpp"
#include "testability/test_points.hpp"
#include "testability/testability.hpp"

// Cost model and the integrated synthesis algorithm.
#include "core/flows.hpp"
#include "core/resched.hpp"
#include "core/synthesis.hpp"
#include "cost/cost.hpp"

// Hardware and test generation.
#include "atpg/atpg.hpp"
#include "atpg/bist.hpp"
#include "atpg/compact.hpp"
#include "atpg/testbench.hpp"
#include "gates/netlist.hpp"
#include "gates/simplify.hpp"
#include "gates/verilog.hpp"
#include "gates/wordlib.hpp"
#include "rtl/elaborate.hpp"
#include "rtl/rtl.hpp"

// Reporting.
#include "report/schedule_view.hpp"
#include "report/table.hpp"
