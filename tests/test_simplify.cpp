// Unit and property tests for the netlist simplification pass: constant
// folding, CSE, dead-logic sweep, and -- the key property -- sequential
// equivalence between the original and simplified machines under random
// stimulus (three-valued, from the unknown power-up state).
#include <gtest/gtest.h>

#include "atpg/wide_sim.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "gates/simplify.hpp"
#include "gates/wordlib.hpp"
#include "rtl/elaborate.hpp"
#include "util/rng.hpp"

// The raw (unsimplified) elaboration lives inside rtl::elaborate; for the
// equivalence test we rebuild a smaller sequential circuit by hand.

namespace hlts {
namespace {

using gates::GateId;
using gates::GateKind;
using gates::Netlist;

TEST(Simplify, FoldsConstantFedGates) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId z = nl.const0();
  GateId dead_and = nl.add_gate(GateKind::And, {a, z});   // == 0
  GateId keep_or = nl.add_gate(GateKind::Or, {a, dead_and});  // == a
  nl.add_output(keep_or, "o");
  auto result = gates::simplify(nl);
  // Everything collapses to out = a.
  const auto& out = result.netlist;
  EXPECT_EQ(out.stats().combinational, 0u);  // everything folded away
  EXPECT_EQ(out.stats().primary_inputs, 1u);
  // The output's driver is the input directly.
  GateId o = out.outputs()[0];
  EXPECT_EQ(out.gate(out.gate(o).inputs[0]).kind, GateKind::Input);
}

TEST(Simplify, XorIdentities) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId x1 = nl.add_gate(GateKind::Xor, {a, a});        // 0
  GateId x2 = nl.add_gate(GateKind::Xor, {a, nl.const1()});  // ~a
  GateId o = nl.add_gate(GateKind::Or, {x1, x2});        // ~a
  nl.add_output(o, "o");
  auto result = gates::simplify(nl);
  GateId drv = result.netlist.gate(result.netlist.outputs()[0]).inputs[0];
  EXPECT_EQ(result.netlist.gate(drv).kind, GateKind::Not);
}

TEST(Simplify, CseMergesDuplicates) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId g1 = nl.add_gate(GateKind::And, {a, b});
  GateId g2 = nl.add_gate(GateKind::And, {b, a});  // commutative duplicate
  GateId o = nl.add_gate(GateKind::Xor, {g1, g2});  // x ^ x == 0
  nl.add_output(o, "o");
  auto result = gates::simplify(nl);
  GateId drv = result.netlist.gate(result.netlist.outputs()[0]).inputs[0];
  EXPECT_EQ(result.netlist.gate(drv).kind, GateKind::Const0);
}

TEST(Simplify, SweepsDeadLogic) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  nl.add_gate(GateKind::And, {a, b});  // never used
  nl.add_output(a, "o");
  auto result = gates::simplify(nl);
  EXPECT_EQ(result.netlist.stats().combinational, 0u);  // all logic swept
  // Inputs always survive (test vector format must stay stable).
  EXPECT_EQ(result.netlist.stats().primary_inputs, 2u);
}

TEST(Simplify, PreservesIoOrderAndNames) {
  Netlist nl;
  GateId a = nl.add_input("alpha");
  GateId b = nl.add_input("beta");
  GateId s = nl.add_gate(GateKind::Xor, {a, b});
  nl.add_output(s, "sum");
  nl.add_output(a, "echo");
  auto result = gates::simplify(nl);
  const auto& out = result.netlist;
  EXPECT_EQ(out.gate(out.inputs()[0]).name, "alpha");
  EXPECT_EQ(out.gate(out.inputs()[1]).name, "beta");
  EXPECT_EQ(out.gate(out.outputs()[0]).name, "sum");
  EXPECT_EQ(out.gate(out.outputs()[1]).name, "echo");
}

TEST(Simplify, DffNeverTreatedAsConstant) {
  // DFF with a constant-1 input is 0 on the first cycle (power-up is X in
  // general; here the sweep must keep the flop, not fold it to 1).
  Netlist nl;
  GateId d = nl.add_dff("r");
  nl.connect_dff(d, nl.const1());
  nl.add_output(d, "o");
  auto result = gates::simplify(nl);
  EXPECT_EQ(result.netlist.stats().flip_flops, 1u);
}

TEST(Simplify, MuxRules) {
  Netlist nl;
  GateId s = nl.add_input("s");
  GateId a = nl.add_input("a");
  GateId m1 = nl.add_gate(GateKind::Mux, {nl.const0(), a, s});  // == a
  GateId m2 = nl.add_gate(GateKind::Mux, {s, nl.const0(), nl.const1()});  // == s
  GateId o = nl.add_gate(GateKind::Xor, {m1, m2});  // a ^ s
  nl.add_output(o, "o");
  auto result = gates::simplify(nl);
  GateId drv = result.netlist.gate(result.netlist.outputs()[0]).inputs[0];
  EXPECT_EQ(result.netlist.gate(drv).kind, GateKind::Xor);
  EXPECT_EQ(result.netlist.stats().combinational, 1u);  // just the xor
}

/// Property: simplification preserves sequential behaviour.  Build a small
/// sequential circuit (an accumulator with enable), simplify, and co-
/// simulate both machines from power-up under random stimulus; every
/// *defined* output of the simplified machine must match the original.
TEST(Simplify, SequentialEquivalenceUnderRandomStimulus) {
  Netlist nl;
  GateId en = nl.add_input("en");
  gates::Word inw = gates::add_input_word(nl, "in", 4);
  gates::Word acc(4);
  for (int i = 0; i < 4; ++i) acc[i] = nl.add_dff("acc");
  gates::Word sum = gates::ripple_add(nl, acc, inw);
  // Gratuitous redundancy for the simplifier to chew on.
  gates::Word padded = gates::ripple_add(nl, sum, gates::zero_word(nl, 4));
  gates::Word next = gates::mux_word(nl, en, acc, padded);
  for (int i = 0; i < 4; ++i) nl.connect_dff(acc[i], next[i]);
  gates::add_output_word(nl, acc, "out");

  auto simplified = gates::simplify(nl);
  EXPECT_LT(simplified.netlist.num_gates(), nl.num_gates());

  atpg::WideSimulator<1> sim_a(nl);
  atpg::WideSimulator<1> sim_b(simplified.netlist);
  Rng rng(2024);
  atpg::TestVector v(nl.inputs().size());
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
    sim_a.step(v);
    sim_b.step(v);
    for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
      GateId oa = nl.outputs()[i];
      GateId ob = simplified.netlist.outputs()[i];
      const bool a_def =
          (sim_a.plane_one(oa) | sim_a.plane_zero(oa)).lane(0);
      const bool b_def =
          (sim_b.plane_one(ob) | sim_b.plane_zero(ob)).lane(0);
      if (a_def && b_def) {
        EXPECT_EQ(sim_a.plane_one(oa).lane(0), sim_b.plane_one(ob).lane(0))
            << "cycle " << cycle << " output " << i;
      }
      // Simplification must not make outputs *less* defined.
      EXPECT_LE(a_def, b_def);
    }
  }
}

TEST(Simplify, ShrinksElaboratedBenchmarks) {
  // The multiplier zero rows and steering zero legs must fold away: the
  // elaborated netlists (already simplified inside elaborate()) contain no
  // constant-fed AND/OR gates.
  dfg::Dfg g = benchmarks::make_ex();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = 8});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 8);
  rtl::Elaboration elab = rtl::elaborate(design);
  for (GateId id : elab.netlist.gate_ids()) {
    const gates::Gate& gate = elab.netlist.gate(id);
    if (gate.kind != GateKind::And && gate.kind != GateKind::Or) continue;
    for (GateId in : gate.inputs) {
      const GateKind k = elab.netlist.gate(in).kind;
      EXPECT_NE(k, GateKind::Const0);
      EXPECT_NE(k, GateKind::Const1);
    }
  }
}

}  // namespace
}  // namespace hlts
