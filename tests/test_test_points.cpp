// Tests for test-point suggestion and DFT elaboration (hold input, control
// points, observation points).
#include <gtest/gtest.h>

#include "atpg/atpg.hpp"
#include "atpg/wide_sim.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "rtl/elaborate.hpp"
#include "testability/test_points.hpp"

namespace hlts {
namespace {

struct Synthesized {
  dfg::Dfg g;
  core::FlowResult flow;
  rtl::RtlDesign design;
};

Synthesized synthesize(core::FlowKind kind, int bits) {
  dfg::Dfg g = benchmarks::make_diffeq();
  core::FlowResult flow = core::run_flow(kind, g, {.bits = bits});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, bits);
  return {std::move(g), std::move(flow), std::move(design)};
}

TEST(TestPoints, SuggestionsRankedByBalance) {
  Synthesized s = synthesize(core::FlowKind::Camad, 8);
  etpn::Etpn e = etpn::build_data_path(s.g, s.flow.schedule, s.flow.binding);
  testability::TestabilityAnalysis analysis(e.data_path);
  auto suggestions = testability::suggest_test_points(e, analysis, 3);
  ASSERT_GE(suggestions.size(), 2u);
  EXPECT_LE(suggestions.size(), 3u);
  for (std::size_t i = 1; i < suggestions.size(); ++i) {
    EXPECT_LE(suggestions[i - 1].balance, suggestions[i].balance);
  }
}

TEST(TestPoints, ObservationPointAddsOutputs) {
  Synthesized s = synthesize(core::FlowKind::Ours, 4);
  rtl::Elaboration plain = rtl::elaborate(s.design);
  rtl::ElaborateOptions options;
  options.test_points.push_back({rtl::RtlRegId{0}, /*control=*/false});
  rtl::Elaboration dft = rtl::elaborate(s.design, options);
  EXPECT_EQ(dft.netlist.stats().primary_outputs,
            plain.netlist.stats().primary_outputs + 4);
  EXPECT_EQ(dft.netlist.stats().primary_inputs,
            plain.netlist.stats().primary_inputs);
}

TEST(TestPoints, ControlPointAddsTestBus) {
  Synthesized s = synthesize(core::FlowKind::Ours, 4);
  rtl::Elaboration plain = rtl::elaborate(s.design);
  rtl::ElaborateOptions options;
  options.test_points.push_back({rtl::RtlRegId{0}, /*control=*/true});
  rtl::Elaboration dft = rtl::elaborate(s.design, options);
  // test_mode + 4-bit tp_in bus.
  EXPECT_EQ(dft.netlist.stats().primary_inputs,
            plain.netlist.stats().primary_inputs + 5);
  // The machine still behaves functionally with test_mode low: same PO count.
  EXPECT_EQ(dft.netlist.stats().primary_outputs,
            plain.netlist.stats().primary_outputs);
}

TEST(TestPoints, HoldInputFreezesController) {
  Synthesized s = synthesize(core::FlowKind::Ours, 4);
  rtl::Elaboration elab = [&] {
    rtl::ElaborateOptions options;
    options.test_hold = true;
    return rtl::elaborate(s.design, options);
  }();
  const auto& nl = elab.netlist;
  atpg::WideSimulator<1> sim(nl);
  sim.reset_state();

  atpg::TestVector v(nl.inputs().size(), false);
  std::size_t reset_i = 0, hold_i = 0;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.gate(nl.inputs()[i]).name == "reset") reset_i = i;
    if (nl.gate(nl.inputs()[i]).name == "hold") hold_i = i;
  }
  auto state_vector = [&] {
    std::string out;
    for (auto g : elab.state) {
      out += sim.plane_one(g).lane(0) ? '1' : (sim.plane_zero(g).lane(0) ? '0' : 'X');
    }
    return out;
  };
  v[reset_i] = true;
  sim.step(v);
  v[reset_i] = false;
  sim.step(v);  // runs with state S0, advances to S1
  v[hold_i] = true;
  sim.step(v);  // state S1 visible; this edge keeps S1 (hold)
  const std::string frozen = state_vector();
  sim.step(v);
  sim.step(v);
  EXPECT_EQ(state_vector(), frozen) << "hold must freeze the controller";
  v[hold_i] = false;
  sim.step(v);
  sim.step(v);
  EXPECT_NE(state_vector(), frozen);
}

TEST(TestPoints, ObservationPointImprovesCoverageOnWorstDesign) {
  // On the connectivity-driven (worst-balance) design, inserting the top
  // suggested test points must not lower coverage -- and with a bounded
  // ATPG budget it typically raises it.
  Synthesized s = synthesize(core::FlowKind::Camad, 8);
  etpn::Etpn e = etpn::build_data_path(s.g, s.flow.schedule, s.flow.binding);
  testability::TestabilityAnalysis analysis(e.data_path);
  auto suggestions = testability::suggest_test_points(e, analysis, 2);
  ASSERT_FALSE(suggestions.empty());
  std::vector<etpn::RegId> alive = s.flow.binding.alive_regs();
  rtl::ElaborateOptions options;
  for (const auto& sug : suggestions) {
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (alive[i] == sug.reg) {
        options.test_points.push_back(
            {rtl::RtlRegId{static_cast<std::uint32_t>(i)},
             sug.kind == testability::TestPointKind::Control});
      }
    }
  }
  rtl::Elaboration plain = rtl::elaborate(s.design);
  rtl::Elaboration dft = rtl::elaborate(s.design, options);
  atpg::AtpgOptions ao;
  ao.max_rounds = 1;
  ao.sequences_per_round = 1;
  ao.podem_backtrack_limit = 12;
  auto r0 = atpg::run_atpg(plain.netlist, s.design.steps() + 1, ao);
  auto r1 = atpg::run_atpg(dft.netlist, s.design.steps() + 1, ao);
  EXPECT_GE(r1.fault_coverage, r0.fault_coverage - 0.02);
}

}  // namespace
}  // namespace hlts
