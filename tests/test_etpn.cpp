// Unit tests for the ETPN layer: bindings, merger transformations, the
// data-path graph (mux count, self-loops, sequential depth), the data-path
// builder, and the control part the test oracle derives from a schedule.
#include <gtest/gtest.h>

#include "benchmarks/benchmarks.hpp"
#include "etpn/etpn.hpp"
#include "sched/schedule.hpp"
#include "support/reference_petri.hpp"

namespace hlts {
namespace {

using etpn::Binding;
using etpn::DpNodeKind;
using etpn::ModuleCompat;

TEST(Binding, DefaultIsOnePerOpAndVar) {
  dfg::Dfg g = benchmarks::make_ex();
  Binding b = Binding::default_binding(g);
  b.validate(g);
  EXPECT_EQ(b.num_alive_modules(), 8);
  EXPECT_EQ(b.num_alive_regs(), 12);  // 6 PIs + u..z; s,t are port-direct
  for (dfg::OpId op : g.op_ids()) {
    EXPECT_EQ(b.module_ops(b.module_of(op)).size(), 1u);
  }
}

TEST(Binding, ModuleMergerMovesOpsAndTombstones) {
  dfg::Dfg g = benchmarks::make_ex();
  Binding b = Binding::default_binding(g);
  auto m21 = b.module_of(*g.find_op("N21"));
  auto m22 = b.module_of(*g.find_op("N22"));
  ASSERT_TRUE(b.can_merge_modules(g, m21, m22));
  b.merge_modules(g, m21, m22);
  b.validate(g);
  EXPECT_EQ(b.num_alive_modules(), 7);
  EXPECT_FALSE(b.module_alive(m22));
  EXPECT_EQ(b.module_of(*g.find_op("N22")), m21);
  EXPECT_EQ(b.module_ops(m21).size(), 2u);
  // Merging into a tombstone is illegal.
  EXPECT_THROW(b.merge_modules(g, m22, m21), Error);
}

TEST(Binding, ExactKindVsAluClassCompat) {
  dfg::Dfg g = benchmarks::make_ex();
  Binding exact = Binding::default_binding(g, ModuleCompat::ExactKind);
  Binding alu = Binding::default_binding(g, ModuleCompat::AluClass);
  auto sub = exact.module_of(*g.find_op("N25"));  // '-'
  auto add = exact.module_of(*g.find_op("N30"));  // '+'
  auto mul = exact.module_of(*g.find_op("N21"));  // '*'
  EXPECT_FALSE(exact.can_merge_modules(g, sub, add));
  EXPECT_TRUE(alu.can_merge_modules(g, sub, add));
  EXPECT_FALSE(alu.can_merge_modules(g, sub, mul));
}

TEST(Binding, RegisterMerger) {
  dfg::Dfg g = benchmarks::make_ex();
  Binding b = Binding::default_binding(g);
  auto ra = b.reg_of(*g.find_var("a"));
  auto ru = b.reg_of(*g.find_var("u"));
  ASSERT_TRUE(b.can_merge_regs(ra, ru));
  b.merge_regs(ra, ru);
  b.validate(g);
  EXPECT_EQ(b.num_alive_regs(), 11);
  EXPECT_EQ(b.reg_of(*g.find_var("u")), ra);
}

TEST(Binding, PortDirectVariablesHaveNoRegister) {
  dfg::Dfg g = benchmarks::make_ex();
  Binding b = Binding::default_binding(g);
  EXPECT_FALSE(b.reg_of(*g.find_var("s")).valid());
  EXPECT_FALSE(b.reg_of(*g.find_var("t")).valid());
}

TEST(Binding, MixedModuleLabelShowsCombinedAlu) {
  dfg::Dfg g = benchmarks::make_ex();
  Binding b = Binding::default_binding(g, ModuleCompat::AluClass);
  auto sub = b.module_of(*g.find_op("N25"));
  auto add = b.module_of(*g.find_op("N30"));
  b.merge_modules(g, sub, add);
  EXPECT_NE(b.module_label(g, sub).find("(+-)"), std::string::npos);
}

TEST(Etpn, BuildProducesConsistentStructure) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::asap(g);
  Binding b = Binding::default_binding(g);
  etpn::Etpn e = etpn::build_data_path(g, s, b);

  // Node census: 6 in-ports, 2 out-ports, 12 registers, 8 modules.
  int inports = 0, outports = 0, regs = 0, mods = 0;
  for (etpn::DpNodeId n : e.data_path.node_ids()) {
    switch (e.data_path.node(n).kind) {
      case DpNodeKind::InPort: ++inports; break;
      case DpNodeKind::OutPort: ++outports; break;
      case DpNodeKind::Register: ++regs; break;
      case DpNodeKind::Module: ++mods; break;
    }
  }
  EXPECT_EQ(inports, 6);
  EXPECT_EQ(outports, 2);
  EXPECT_EQ(regs, 12);
  EXPECT_EQ(mods, 8);

  // Control: chain S0..S3, critical path = schedule length.
  const test_support::ControlNet control =
      test_support::build_control(g, s.length());
  EXPECT_EQ(control.net.num_places(), 4u);
  EXPECT_EQ(test_support::petri::critical_path(control.net).length,
            s.length());

  // Default allocation has no multiplexers and no self-loops.
  EXPECT_EQ(e.data_path.mux_count(), 0);
  EXPECT_EQ(e.data_path.self_loop_count(), 0);
}

TEST(Etpn, MergingRegistersCreatesMuxes) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::asap(g);
  Binding b = Binding::default_binding(g);
  // a (from in-port) and u (from module N21) share one register: its input
  // port now has two sources.
  b.merge_regs(b.reg_of(*g.find_var("a")), b.reg_of(*g.find_var("u")));
  etpn::Etpn e = etpn::build_data_path(g, s, b);
  EXPECT_GE(e.data_path.mux_count(), 1);
}

TEST(Etpn, SelfLoopDetected) {
  // u = a + b; v = u + c, with u and v sharing a register: the adder module
  // of v reads the register and writes it back.
  dfg::Dfg g("loopy");
  auto a = g.add_input("a");
  auto b2 = g.add_input("b");
  auto c = g.add_input("c");
  g.add_op_new_var("n1", dfg::OpKind::Add, {a, b2}, "u");
  g.add_op_new_var("n2", dfg::OpKind::Add, {*g.find_var("u"), c}, "v");
  g.mark_output(*g.find_var("v"), true);
  sched::Schedule s = sched::asap(g);
  Binding bind = Binding::default_binding(g);
  bind.merge_regs(bind.reg_of(*g.find_var("u")), bind.reg_of(*g.find_var("v")));
  etpn::Etpn e = etpn::build_data_path(g, s, bind);
  EXPECT_GE(e.data_path.self_loop_count(), 1);
}

TEST(Etpn, LoopOnConditionAddsGuardedTransitions) {
  dfg::Dfg g = benchmarks::make_diffeq();
  sched::Schedule s = sched::asap(g);
  const test_support::ControlNet plain =
      test_support::build_control(g, s.length());
  const test_support::ControlNet looped =
      test_support::build_control(g, s.length(), /*loop_on_condition=*/true);
  EXPECT_FALSE(plain.looped);
  EXPECT_TRUE(looped.looped);
  EXPECT_EQ(looped.net.num_transitions(), plain.net.num_transitions() + 2);
  // Critical path unchanged: the loop back-arc is traversed once.
  EXPECT_EQ(test_support::petri::critical_path(looped.net).length,
            test_support::petri::critical_path(plain.net).length);
  test_support::petri::ReachabilityTree tree(looped.net);
  EXPECT_FALSE(tree.has_deadlock());
}

TEST(Etpn, SequentialDepthOnDefaultAllocation) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::asap(g);
  Binding b = Binding::default_binding(g);
  etpn::Etpn e = etpn::build_data_path(g, s, b);
  auto depth = e.data_path.sequential_depth();
  // PI registers: d_in 0; register u: d_in 1 (a -> N21 -> u), d_out:
  // u -> N25 -> y -> N29 -> out: 1 hop to y which feeds the out port via
  // N29/N30... max depth is small but nonzero.
  EXPECT_GT(depth.total_depth, 0);
  EXPECT_EQ(depth.unreachable, 0);
}

TEST(Etpn, ScheduleMismatchRejected) {
  dfg::Dfg ex = benchmarks::make_ex();
  dfg::Dfg dct = benchmarks::make_dct();
  sched::Schedule s = sched::asap(dct);
  Binding b = Binding::default_binding(ex);
  EXPECT_THROW(etpn::build_data_path(ex, s, b), Error);
}

}  // namespace
}  // namespace hlts
