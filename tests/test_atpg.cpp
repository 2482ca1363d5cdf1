// Unit and property tests for the ATPG stack: fault collapsing, the
// three-valued parallel-fault simulator, PODEM, and the orchestrator.
#include <gtest/gtest.h>

#include "atpg/atpg.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/podem.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "gates/wordlib.hpp"
#include "rtl/elaborate.hpp"
#include "util/rng.hpp"

namespace hlts {
namespace {

using gates::GateId;
using gates::GateKind;
using gates::Netlist;

TEST(Faults, CollapseDropsBuffersInvertersAndConstants) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId n = nl.add_gate(GateKind::Not, {a});
  GateId buf = nl.add_gate(GateKind::Buf, {n});
  GateId g = nl.add_gate(GateKind::And, {buf, b});
  nl.add_output(g, "o");
  auto u = atpg::FaultUniverse::collapsed(nl);
  // Faults on: a, b, and-gate.  Not, Buf, Output dropped.  2 polarities.
  EXPECT_EQ(u.size(), 6u);
}

TEST(Faults, NamesIncludePolarity) {
  Netlist nl;
  GateId a = nl.add_input("pi");
  nl.add_output(a, "o");
  atpg::Fault f{a, true};
  EXPECT_EQ(atpg::fault_name(nl, f), "pi/sa1");
}

TEST(Simulator, ThreeValuedPowerUpIsX) {
  Netlist nl;
  GateId d = nl.add_dff("r");
  GateId a = nl.add_input("a");
  nl.connect_dff(d, a);
  nl.add_output(d, "o");
  atpg::WideSimulator<1> sim(nl);
  sim.reset_state();
  sim.step({true});
  GateId o = nl.outputs()[0];
  // First cycle: register still X.
  EXPECT_FALSE(sim.plane_one(o).lane(0));
  EXPECT_FALSE(sim.plane_zero(o).lane(0));
  sim.step({true});
  // Second cycle: captured the 1.
  EXPECT_TRUE(sim.plane_one(o).lane(0));
}

TEST(Simulator, FaultInjectionPerLane) {
  // o = a AND b; inject a/sa0 into lane 1, b/sa1 into lane 2.
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId g = nl.add_gate(GateKind::And, {a, b});
  nl.add_output(g, "o");
  atpg::WideSimulator<1> sim(nl);
  sim.inject(1, {a, false});
  sim.inject(2, {b, true});
  // a=1 b=1: lane1 sees a=0 -> o=0 (differs from good 1): detected.
  atpg::Packet<1> det = sim.step({true, true});
  EXPECT_TRUE(det.lane(1));
  EXPECT_FALSE(det.lane(2));  // lane2: b already 1, no difference
  // a=1 b=0: lane2 sees b=1 -> o=1 vs good 0: detected.
  det = sim.step({true, false});
  EXPECT_TRUE(det.lane(2));
  EXPECT_FALSE(det.lane(1));  // lane1: o=0 either way
}

TEST(Simulator, XNeverDetects) {
  // Output driven by an uninitialized register: good is X, nothing detects.
  Netlist nl;
  GateId d = nl.add_dff("r");
  nl.connect_dff(d, d);  // holds X forever
  nl.add_output(d, "o");
  atpg::WideSimulator<1> sim(nl);
  sim.inject(1, {d, true});
  EXPECT_FALSE(sim.step({}).any());
  EXPECT_FALSE(sim.step({}).any());
}

TEST(FaultSim, DropsDetectedFaults) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId g = nl.add_gate(GateKind::Xor, {a, b});
  nl.add_output(g, "o");
  auto universe = atpg::FaultUniverse::collapsed(nl);
  std::vector<atpg::Fault> faults = universe.faults();
  atpg::FaultSimulator fsim(nl);
  atpg::TestSequence seq{{false, false}, {true, false}, {false, true}};
  const std::size_t dropped = fsim.drop_detected(seq, faults);
  // XOR with these three vectors detects every collapsed fault.
  EXPECT_EQ(dropped, universe.size());
  EXPECT_TRUE(faults.empty());
}

TEST(Podem, FindsTestForCombinationalFault) {
  // o = (a AND b) OR c; target the AND output stuck-at-0.
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId c = nl.add_input("c");
  GateId g1 = nl.add_gate(GateKind::And, {a, b});
  GateId g2 = nl.add_gate(GateKind::Or, {g1, c});
  nl.add_output(g2, "o");
  atpg::TimeFramePodem podem(nl, 1);
  auto r = podem.generate({g1, false}, 100);
  ASSERT_EQ(r.status, atpg::PodemStatus::Detected);
  ASSERT_EQ(r.sequence.size(), 1u);
  // The test must set a=b=1, c=0.
  EXPECT_TRUE(r.sequence[0][0]);
  EXPECT_TRUE(r.sequence[0][1]);
  EXPECT_FALSE(r.sequence[0][2]);
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // o = a OR (a AND b): the AND output sa0 is undetectable (absorption).
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId g1 = nl.add_gate(GateKind::And, {a, b});
  GateId g2 = nl.add_gate(GateKind::Or, {a, g1});
  nl.add_output(g2, "o");
  atpg::TimeFramePodem podem(nl, 1);
  auto r = podem.generate({g1, false}, 10000);
  EXPECT_NE(r.status, atpg::PodemStatus::Detected);
}

TEST(Podem, GeneratedSequencesConfirmInFaultSimulator) {
  // Property: every PODEM-detected fault's sequence is confirmed by the
  // independent sequential fault simulator.
  dfg::Dfg g = benchmarks::make_ex();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = 4});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  rtl::Elaboration elab = rtl::elaborate(design);
  auto universe = atpg::FaultUniverse::collapsed(elab.netlist);
  atpg::TimeFramePodem podem(elab.netlist, 2 * (design.steps() + 1));
  atpg::FaultSimulator fsim(elab.netlist);

  int generated = 0;
  int confirmed = 0;
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const atpg::Fault f =
        universe.faults()[rng.next_below(universe.size())];
    auto r = podem.generate(f, 60);
    if (r.status != atpg::PodemStatus::Detected) continue;
    ++generated;
    std::vector<atpg::Fault> just_this{f};
    if (fsim.drop_detected(r.sequence, just_this) == 1) ++confirmed;
  }
  ASSERT_GT(generated, 10);
  EXPECT_EQ(confirmed, generated);
}

TEST(Podem, CheckSequenceAgreesWithFaultSimulator) {
  // Property (both directions on random sequences): the unrolled model and
  // the sequential simulator agree on detection.
  dfg::Dfg g = benchmarks::make_paulin();
  core::FlowResult flow = core::run_flow(core::FlowKind::Approach1, g, {.bits = 4});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  rtl::Elaboration elab = rtl::elaborate(design);
  const auto& nl = elab.netlist;
  const int period = design.steps() + 1;
  auto universe = atpg::FaultUniverse::collapsed(nl);
  atpg::TimeFramePodem podem(nl, 2 * period);
  atpg::FaultSimulator fsim(nl);

  Rng rng(77);
  int agreements = 0;
  for (int trial = 0; trial < 10; ++trial) {
    atpg::TestSequence seq;
    for (int c = 0; c < 2 * period; ++c) {
      atpg::TestVector v(nl.inputs().size());
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
      if (c == 0) v[0] = true;  // reset is input 0 by construction
      seq.push_back(v);
    }
    std::vector<atpg::Fault> faults = universe.faults();
    auto detected = fsim.detected_by(seq, faults);
    for (std::size_t idx : detected) {
      EXPECT_TRUE(podem.check_sequence(faults[idx], seq))
          << atpg::fault_name(nl, faults[idx]);
      ++agreements;
    }
  }
  EXPECT_GT(agreements, 100);
}

TEST(Atpg, EndToEndProducesSensibleNumbers) {
  dfg::Dfg g = benchmarks::make_ex();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = 4});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  rtl::Elaboration elab = rtl::elaborate(design);
  atpg::AtpgResult r = atpg::run_atpg(elab.netlist, design.steps() + 1, {});
  EXPECT_GT(r.total_faults, 100u);
  EXPECT_GT(r.fault_coverage, 0.9);
  EXPECT_LE(r.fault_coverage, 1.0);
  EXPECT_EQ(r.detected() + r.undetected.size(), r.total_faults);
  EXPECT_GT(r.test_cycles, 0);
  EXPECT_GE(r.tg_time_ms, 0.0);
}

TEST(Atpg, DeterministicAcrossRuns) {
  dfg::Dfg g = benchmarks::make_paulin();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = 4});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  rtl::Elaboration elab = rtl::elaborate(design);
  atpg::AtpgOptions options;
  options.seed = 99;
  atpg::AtpgResult r1 = atpg::run_atpg(elab.netlist, design.steps() + 1, options);
  atpg::AtpgResult r2 = atpg::run_atpg(elab.netlist, design.steps() + 1, options);
  EXPECT_EQ(r1.detected(), r2.detected());
  EXPECT_EQ(r1.test_cycles, r2.test_cycles);
}

}  // namespace
}  // namespace hlts
