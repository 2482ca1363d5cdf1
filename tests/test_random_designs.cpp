// Property tests over randomly generated designs: every synthesis flow on
// every random DFG must produce a consistent design, and the elaborated
// machine must compute exactly what the DFG specifies.  This fuzzes the
// whole pipeline (scheduling, merger feasibility, rescheduling, RTL
// elaboration, bit-blasting, simplification, simulation).
#include <gtest/gtest.h>

#include <map>

#include "atpg/simulator.hpp"
#include "core/flows.hpp"
#include "core/resched.hpp"
#include "rtl/elaborate.hpp"
#include "support/dfg_fixtures.hpp"
#include "support/reference_synthesis.hpp"
#include "util/rng.hpp"

namespace hlts {
namespace {

using test_support::interpret;
using test_support::random_dfg;

class RandomDesigns : public ::testing::TestWithParam<int> {};

TEST_P(RandomDesigns, AllFlowsConsistent) {
  dfg::Dfg g = random_dfg(1000 + GetParam(), 4 + GetParam() % 4,
                          6 + (GetParam() * 7) % 15);
  for (core::FlowKind kind : {core::FlowKind::Camad, core::FlowKind::Approach1,
                              core::FlowKind::Approach2, core::FlowKind::Ours}) {
    core::FlowResult r = core::run_flow(kind, g, {.bits = 4});
    EXPECT_TRUE(r.schedule.respects_data_deps(g));
    EXPECT_TRUE(core::schedule_respects_binding(g, r.binding, r.schedule))
        << g.name() << " flow " << core::flow_name(kind);
  }
}

TEST_P(RandomDesigns, ElaboratedMachineMatchesSpec) {
  const int bits = 5;  // deliberately odd width
  dfg::Dfg g = random_dfg(2000 + GetParam(), 5, 10);
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = bits});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, bits);
  rtl::Elaboration elab = rtl::elaborate(design);
  const auto& nl = elab.netlist;

  Rng rng(31 + GetParam());
  std::map<std::string, std::uint64_t> inputs;
  for (const rtl::RtlPort& p : design.inports()) {
    inputs[p.name] = rng.next_u64() & 0x1f;
  }
  auto expected = interpret(g, inputs, bits);

  atpg::ParallelSimulator sim(nl);
  sim.reset_state();
  auto vec = [&](bool reset) {
    atpg::TestVector v(nl.inputs().size(), false);
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      const std::string& name = nl.gate(nl.inputs()[i]).name;
      if (name == "reset") {
        v[i] = reset;
        continue;
      }
      const auto br = name.find('[');
      v[i] = (inputs.at(name.substr(3, br - 3)) >>
              std::stoi(name.substr(br + 1))) &
             1;
    }
    return v;
  };
  sim.step(vec(true));
  for (int c = 0; c <= design.steps() + 1; ++c) sim.step(vec(false));

  std::map<std::string, std::uint64_t> observed;
  for (gates::GateId o : nl.outputs()) {
    const std::string& name = nl.gate(o).name;
    const auto br = name.find('[');
    observed[name.substr(4, br - 4)] |=
        static_cast<std::uint64_t>(sim.plane_one(o) & 1)
        << std::stoi(name.substr(br + 1));
  }
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    if (var.is_primary_output && var.po_registered) {
      EXPECT_EQ(observed.at(var.name), expected.at(var.name))
          << g.name() << " output " << var.name;
    }
  }
}

// The incremental analysis layer must be invisible in the results: every
// Algorithm-1 iteration on every random design is bit-identical to the
// from-scratch reference step (tests/support/reference_synthesis.hpp).
TEST_P(RandomDesigns, IncrementalFlowMatchesFullRecompute) {
  dfg::Dfg g = random_dfg(3000 + GetParam(), 4 + GetParam() % 3,
                          7 + (GetParam() * 5) % 12);
  for (core::FlowKind kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
    test_support::replay_flow_against_reference(kind, g, {.bits = 4});
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, RandomDesigns, ::testing::Range(0, 12));

}  // namespace
}  // namespace hlts
