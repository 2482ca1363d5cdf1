// Unit tests for the testability analysis (CC/SC/CO/SO propagation) and the
// controllability/observability balance candidate selection.
#include <gtest/gtest.h>

#include "benchmarks/benchmarks.hpp"
#include "etpn/etpn.hpp"
#include "sched/schedule.hpp"
#include "testability/balance.hpp"
#include "testability/testability.hpp"

namespace hlts {
namespace {

using etpn::Binding;
using testability::Measure;
using testability::TestabilityAnalysis;

/// a chain: in -> R(a) -> mul -> R(t) -> mul -> R(u) -> add -> out.
dfg::Dfg chain_dfg() {
  dfg::Dfg g("chain");
  auto a = g.add_input("a");
  auto b = g.add_input("b");
  g.add_op_new_var("m1", dfg::OpKind::Mul, {a, b}, "t");
  g.add_op_new_var("m2", dfg::OpKind::Mul, {*g.find_var("t"), b}, "u");
  g.add_op_new_var("a1", dfg::OpKind::Add, {*g.find_var("u"), a}, "s");
  g.mark_output(*g.find_var("s"), true);
  return g;
}

struct Built {
  dfg::Dfg g;
  Binding b;
  etpn::Etpn e;
};

Built build(dfg::Dfg g) {
  sched::Schedule s = sched::asap(g);
  Binding b = Binding::default_binding(g);
  etpn::Etpn e = etpn::build_data_path(g, s, b);
  return {std::move(g), std::move(b), std::move(e)};
}

TEST(Measure, OrderingAndScalar) {
  Measure strong{1.0, 0.0};
  Measure weak{0.5, 2.0};
  EXPECT_TRUE(strong.better_than(weak));
  EXPECT_FALSE(weak.better_than(strong));
  EXPECT_GT(strong.scalar(), weak.scalar());
  Measure same_comb_deeper{1.0, 3.0};
  EXPECT_TRUE(strong.better_than(same_comb_deeper));
}

TEST(TransferFactors, MultiplierDegradesMoreThanAdder) {
  EXPECT_LT(testability::controllability_transfer(dfg::OpKind::Mul),
            testability::controllability_transfer(dfg::OpKind::Add));
  EXPECT_LT(testability::observability_transfer(dfg::OpKind::Mul),
            testability::observability_transfer(dfg::OpKind::Add));
  // Comparisons funnel wide operands into one bit: worst observability.
  EXPECT_LT(testability::observability_transfer(dfg::OpKind::Less),
            testability::observability_transfer(dfg::OpKind::Mul));
}

TEST(Testability, ControllabilityDecaysAlongChain) {
  Built built = build(chain_dfg());
  TestabilityAnalysis analysis(built.e.data_path);

  auto reg_node = [&](const char* var) {
    // Find the register node whose label mentions the variable.
    for (etpn::DpNodeId n : built.e.data_path.node_ids()) {
      const auto& node = built.e.data_path.node(n);
      if (node.kind == etpn::DpNodeKind::Register &&
          etpn::node_label(built.g, built.b, node) == std::string("R: ") + var) {
        return n;
      }
    }
    throw Error("register not found");
  };

  Measure ca = analysis.node_controllability(reg_node("a"));
  Measure ct = analysis.node_controllability(reg_node("t"));
  Measure cu = analysis.node_controllability(reg_node("u"));
  // PI register node: its best *input line* comes straight from the port
  // (the +1 load stage appears on its output lines).
  EXPECT_DOUBLE_EQ(ca.comb, 1.0);
  EXPECT_DOUBLE_EQ(ca.seq, 0.0);
  // Each multiplier stage multiplies the factor and adds a register stage.
  EXPECT_LT(ct.comb, ca.comb);
  EXPECT_LT(cu.comb, ct.comb);
  EXPECT_GT(cu.seq, ct.seq);

  // Observability improves toward the output register.
  Measure ou = analysis.node_observability(reg_node("u"));
  Measure ot = analysis.node_observability(reg_node("t"));
  EXPECT_GT(ou.comb, ot.comb);
}

TEST(Testability, FixpointTerminatesOnLoopyDataPath) {
  // Self-loop: u and v share a register; the adder reads and writes it.
  dfg::Dfg g("loopy");
  auto a = g.add_input("a");
  auto b2 = g.add_input("b");
  g.add_op_new_var("n1", dfg::OpKind::Add, {a, b2}, "u");
  g.add_op_new_var("n2", dfg::OpKind::Add, {*g.find_var("u"), a}, "v");
  g.mark_output(*g.find_var("v"), true);
  sched::Schedule s = sched::asap(g);
  Binding bind = Binding::default_binding(g);
  bind.merge_regs(bind.reg_of(*g.find_var("u")), bind.reg_of(*g.find_var("v")));
  etpn::Etpn e = etpn::build_data_path(g, s, bind);
  TestabilityAnalysis analysis(e.data_path);  // must terminate
  EXPECT_GT(analysis.balance_index(), 0.0);
  EXPECT_LE(analysis.balance_index(), 1.0);
}

TEST(Balance, SelectsComplementaryPairs) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::asap(g);
  Binding b = Binding::default_binding(g);
  etpn::Etpn e = etpn::build_data_path(g, s, b);
  TestabilityAnalysis analysis(e.data_path);
  auto candidates =
      testability::select_balance_candidates(g, b, e, analysis, 10);
  ASSERT_FALSE(candidates.empty());
  EXPECT_LE(candidates.size(), 10u);
  // Scores are sorted descending.
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GE(candidates[i - 1].score, candidates[i].score);
  }
}

TEST(Balance, RegisterMergeImpossibleCases) {
  dfg::Dfg g = benchmarks::make_ex();
  Binding b = Binding::default_binding(g);
  // Case (2): N21 reads both a and b -> their registers can never merge.
  EXPECT_TRUE(testability::register_merge_impossible(
      g, b, b.reg_of(*g.find_var("a")), b.reg_of(*g.find_var("b"))));
  // u (read by N25) and z (written by N27): no shared consumer, orderable.
  EXPECT_FALSE(testability::register_merge_impossible(
      g, b, b.reg_of(*g.find_var("u")), b.reg_of(*g.find_var("z"))));
}

TEST(Balance, SelfLoopPenaltyLowersScore) {
  dfg::Dfg g("pen");
  auto a = g.add_input("a");
  auto b2 = g.add_input("b");
  g.add_op_new_var("n1", dfg::OpKind::Add, {a, b2}, "u");
  g.add_op_new_var("n2", dfg::OpKind::Add, {*g.find_var("u"), b2}, "v");
  g.mark_output(*g.find_var("v"), true);
  sched::Schedule s = sched::asap(g);
  Binding bind = Binding::default_binding(g);
  etpn::Etpn e = etpn::build_data_path(g, s, bind);
  TestabilityAnalysis analysis(e.data_path);

  testability::BalanceOptions no_penalty;
  no_penalty.self_loop_penalty = 0.0;
  testability::BalanceOptions heavy;
  heavy.self_loop_penalty = 10.0;

  auto without = testability::select_balance_candidates(g, bind, e, analysis,
                                                        100, no_penalty);
  auto with = testability::select_balance_candidates(g, bind, e, analysis,
                                                     100, heavy);
  ASSERT_EQ(without.size(), with.size());
  // Merging R(u) with R(v) creates a self-loop (n2 reads u, writes v); with
  // the heavy penalty that pair must rank last.
  auto is_uv = [&](const testability::MergeCandidate& c) {
    return c.kind == testability::MergeCandidate::Kind::Registers &&
           c.creates_self_loop;
  };
  ASSERT_TRUE(std::any_of(with.begin(), with.end(), is_uv));
  EXPECT_TRUE(is_uv(with.back()));
}

TEST(Testability, BalanceIndexWithinUnitRange) {
  for (const std::string& name : benchmarks::benchmark_names()) {
    Built built = build(benchmarks::make_benchmark(name));
    TestabilityAnalysis analysis(built.e.data_path);
    EXPECT_GT(analysis.balance_index(), 0.0) << name;
    EXPECT_LE(analysis.balance_index(), 1.0) << name;
  }
}

}  // namespace
}  // namespace hlts
