// RTL construction, Verilog dump, and -- most importantly -- functional
// equivalence: the elaborated gate-level machine, clocked through one
// schedule pass, must compute exactly what the behavioral DFG specifies.
#include <gtest/gtest.h>

#include <map>

#include "atpg/wide_sim.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "rtl/elaborate.hpp"
#include "rtl/rtl.hpp"
#include "support/dfg_fixtures.hpp"
#include "util/rng.hpp"

namespace hlts {
namespace {

using test_support::interpret;

/// Drives the elaborated machine through reset + one full schedule pass
/// with the given input values and returns the observed output-port words
/// at the end of the pass.
std::map<std::string, std::uint64_t> run_machine(
    const rtl::RtlDesign& design, const rtl::Elaboration& elab,
    const std::map<std::string, std::uint64_t>& inputs, int bits) {
  atpg::WideSimulator<1> sim(elab.netlist);
  sim.reset_state();

  const auto& nl = elab.netlist;
  auto make_vector = [&](bool reset) {
    atpg::TestVector v(nl.inputs().size(), false);
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      const std::string& name = nl.gate(nl.inputs()[i]).name;
      if (name == "reset") {
        v[i] = reset;
        continue;
      }
      // Input names look like "in_x[3]".
      const auto bracket = name.find('[');
      EXPECT_NE(bracket, std::string::npos) << name;
      const std::string port = name.substr(3, bracket - 3);
      const int bit = std::stoi(name.substr(bracket + 1));
      v[i] = (inputs.at(port) >> bit) & 1;
    }
    return v;
  };

  atpg::TestVector reset_vec = make_vector(true);
  atpg::TestVector run_vec = make_vector(false);

  sim.step(reset_vec);  // enter S0
  // S0 (load) .. S<steps>: one full pass, plus one observation cycle (the
  // simulator exposes during-cycle values, so the final clock edge's
  // register contents are visible one cycle later).
  for (int c = 0; c <= design.steps() + 1; ++c) sim.step(run_vec);

  std::map<std::string, std::uint64_t> out;
  for (gates::GateId o : nl.outputs()) {
    const std::string& name = nl.gate(o).name;  // "out_x[3]"
    const auto bracket = name.find('[');
    const std::string port = name.substr(4, bracket - 4);
    const int bit = std::stoi(name.substr(bracket + 1));
    const std::uint64_t plane1 = sim.plane_one(o).lane(0);
    out[port] |= plane1 << bit;
  }
  (void)bits;
  return out;
}

class RtlFunctional
    : public ::testing::TestWithParam<std::tuple<std::string, core::FlowKind>> {
};

TEST_P(RtlFunctional, MachineMatchesBehavioralSpec) {
  const auto& [bench, kind] = GetParam();
  const int bits = 8;
  dfg::Dfg g = benchmarks::make_benchmark(bench);
  core::FlowResult flow = core::run_flow(kind, g, {.bits = bits});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, bits);
  rtl::Elaboration elab = rtl::elaborate(design);

  Rng rng(42 + static_cast<unsigned>(kind));
  for (int trial = 0; trial < 5; ++trial) {
    std::map<std::string, std::uint64_t> inputs;
    for (const rtl::RtlPort& p : design.inports()) {
      inputs[p.name] = rng.next_u64() & 0xff;
    }
    auto expected = interpret(g, inputs, bits);
    auto observed = run_machine(design, elab, inputs, bits);
    for (dfg::VarId v : g.var_ids()) {
      const dfg::Variable& var = g.var(v);
      // Registered outputs hold their value at the end of the pass;
      // port-direct outputs were only valid during their step and have
      // been gated off again, so only registered ones are checked here.
      if (var.is_primary_output && var.po_registered) {
        EXPECT_EQ(observed.at(var.name), expected.at(var.name))
            << bench << " output " << var.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, RtlFunctional,
    ::testing::Combine(::testing::Values("ex", "diffeq", "ewf", "paulin"),
                       ::testing::Values(core::FlowKind::Camad,
                                         core::FlowKind::Approach1,
                                         core::FlowKind::Approach2,
                                         core::FlowKind::Ours)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_flow" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

TEST(Rtl, VerilogDumpContainsStructure) {
  dfg::Dfg g = benchmarks::make_ex();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = 8});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 8);
  const std::string v = design.to_verilog();
  EXPECT_NE(v.find("module ex"), std::string::npos);
  EXPECT_NE(v.find("posedge clk"), std::string::npos);
  EXPECT_NE(v.find("out_s"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Rtl, ValidateRejectsDoubleBookedFu) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::asap(g);  // several mults share step 1
  etpn::Binding b = etpn::Binding::default_binding(g);
  b.merge_modules(g, b.module_of(*g.find_op("N21")),
                  b.module_of(*g.find_op("N22")));
  EXPECT_THROW(rtl::RtlDesign::from_synthesis(g, s, b, 8), Error);
}

}  // namespace
}  // namespace hlts
