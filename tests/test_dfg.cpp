// Unit tests for the data-flow graph and the six benchmark constructions.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "benchmarks/benchmarks.hpp"
#include "dfg/dfg.hpp"

namespace hlts {
namespace {

using dfg::Dfg;
using dfg::OpKind;

TEST(Dfg, BuildAndQuery) {
  Dfg g("t");
  auto a = g.add_input("a");
  auto b = g.add_input("b");
  auto op = g.add_op_new_var("n1", OpKind::Add, {a, b}, "s");
  g.mark_output(*g.find_var("s"));
  g.validate();

  EXPECT_EQ(g.num_ops(), 1u);
  EXPECT_EQ(g.num_vars(), 3u);
  EXPECT_TRUE(g.preds(op).empty());
  EXPECT_TRUE(g.succs(op).empty());
  EXPECT_EQ(g.primary_inputs().size(), 2u);
  EXPECT_EQ(g.primary_outputs().size(), 1u);
  EXPECT_EQ(g.critical_path_ops(), 1);
}

TEST(Dfg, RejectsDuplicateNames) {
  Dfg g;
  g.add_input("a");
  EXPECT_THROW(g.add_input("a"), Error);
  EXPECT_THROW(g.add_variable("a"), Error);
}

TEST(Dfg, RejectsArityMismatch) {
  Dfg g;
  auto a = g.add_input("a");
  auto out = g.add_variable("out");
  EXPECT_THROW(g.add_op("n", OpKind::Add, {a}, out), Error);
}

TEST(Dfg, RejectsDoubleDefinition) {
  Dfg g;
  auto a = g.add_input("a");
  auto b = g.add_input("b");
  auto out = g.add_variable("out");
  g.add_op("n1", OpKind::Add, {a, b}, out);
  EXPECT_THROW(g.add_op("n2", OpKind::Sub, {a, b}, out), Error);
}

TEST(Dfg, TopoOrderRespectsDependences) {
  Dfg g = benchmarks::make_ewf();
  auto order = g.topo_order();
  std::map<std::uint32_t, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i].value()] = i;
  for (dfg::OpId op : g.op_ids()) {
    for (dfg::OpId p : g.preds(op)) {
      EXPECT_LT(pos[p.value()], pos[op.value()]);
    }
  }
}

TEST(Dfg, NeedsRegisterRules) {
  Dfg g;
  auto a = g.add_input("a");
  auto b = g.add_input("b");
  g.add_op_new_var("n1", OpKind::Mul, {a, b}, "t");
  auto t = *g.find_var("t");
  g.add_op_new_var("n2", OpKind::Add, {t, a}, "u");
  auto u = *g.find_var("u");
  g.add_op_new_var("n3", OpKind::Sub, {t, b}, "v");
  auto v = *g.find_var("v");
  g.mark_output(u, /*registered=*/true);
  g.mark_output(v, /*registered=*/false);
  EXPECT_TRUE(g.needs_register(a));   // primary input
  EXPECT_TRUE(g.needs_register(t));   // consumed
  EXPECT_TRUE(g.needs_register(u));   // registered output
  EXPECT_FALSE(g.needs_register(v));  // port-direct output
}

TEST(Dfg, DotOutputMentionsEverything) {
  Dfg g = benchmarks::make_ex();
  std::string dot = g.to_dot();
  EXPECT_NE(dot.find("N21"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(OpKindHelpers, ArityAndSymbols) {
  EXPECT_EQ(dfg::op_arity(OpKind::Not), 1);
  EXPECT_EQ(dfg::op_arity(OpKind::Mul), 2);
  EXPECT_STREQ(dfg::op_symbol(OpKind::Mul), "*");
  EXPECT_STREQ(dfg::op_name(OpKind::Less), "less");
  EXPECT_TRUE(dfg::op_is_comparison(OpKind::Less));
  EXPECT_FALSE(dfg::op_is_comparison(OpKind::Add));
  EXPECT_TRUE(dfg::ops_module_compatible(OpKind::Add, OpKind::Sub));
  EXPECT_TRUE(dfg::ops_module_compatible(OpKind::Add, OpKind::Less));
  EXPECT_FALSE(dfg::ops_module_compatible(OpKind::Add, OpKind::Mul));
}

/// The paper's benchmark operation mixes.
struct BenchSpec {
  std::string name;
  std::size_t ops;
  std::map<OpKind, int> mix;
};

// Print a spec by its benchmark name.  gtest otherwise dumps the raw bytes
// of the struct, which hold heap addresses, into the listed test names.
void PrintTo(const BenchSpec& spec, std::ostream* os) {
  *os << '"' << spec.name << '"';
}

class BenchmarkShape : public ::testing::TestWithParam<BenchSpec> {};

TEST_P(BenchmarkShape, HasPaperOperationMix) {
  const BenchSpec& spec = GetParam();
  Dfg g = benchmarks::make_benchmark(spec.name);
  g.validate();
  EXPECT_EQ(g.num_ops(), spec.ops);
  std::map<OpKind, int> mix;
  for (dfg::OpId op : g.op_ids()) mix[g.op(op).kind]++;
  for (const auto& [kind, count] : spec.mix) {
    EXPECT_EQ(mix[kind], count) << spec.name << " " << dfg::op_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperMixes, BenchmarkShape,
    ::testing::Values(
        BenchSpec{"ex", 8, {{OpKind::Mul, 4}, {OpKind::Sub, 3}, {OpKind::Add, 1}}},
        BenchSpec{"dct",
                  13,
                  {{OpKind::Mul, 5}, {OpKind::Add, 6}, {OpKind::Sub, 2}}},
        BenchSpec{"diffeq",
                  11,
                  {{OpKind::Mul, 6},
                   {OpKind::Add, 2},
                   {OpKind::Sub, 2},
                   {OpKind::Less, 1}}},
        BenchSpec{"ewf", 34, {{OpKind::Add, 26}, {OpKind::Mul, 8}}},
        BenchSpec{"paulin",
                  8,
                  {{OpKind::Mul, 4}, {OpKind::Add, 2}, {OpKind::Sub, 2}}},
        BenchSpec{"tseng",
                  8,
                  {{OpKind::Add, 3},
                   {OpKind::Sub, 1},
                   {OpKind::Mul, 1},
                   {OpKind::Div, 1},
                   {OpKind::Or, 1},
                   {OpKind::And, 1}}}),
    [](const auto& info) { return info.param.name; });

TEST(Benchmarks, UnknownNameThrows) {
  EXPECT_THROW(benchmarks::make_benchmark("nope"), Error);
}

TEST(Benchmarks, PaperNodeNamesPresent) {
  Dfg ex = benchmarks::make_ex();
  for (const char* n : {"N21", "N22", "N24", "N25", "N27", "N28", "N29", "N30"}) {
    EXPECT_TRUE(ex.find_op(n).has_value()) << n;
  }
  Dfg dct = benchmarks::make_dct();
  for (const char* n : {"N27", "N31", "N33", "N35", "N38", "N40", "N44"}) {
    EXPECT_TRUE(dct.find_op(n).has_value()) << n;
  }
  for (const char* v : {"p1", "p4", "q2", "q4"}) {
    EXPECT_TRUE(dct.find_var(v).has_value()) << v;
  }
  Dfg diffeq = benchmarks::make_diffeq();
  for (const char* v : {"x", "y", "u", "dx", "a", "3", "u1", "x1", "y1"}) {
    EXPECT_TRUE(diffeq.find_var(v).has_value()) << v;
  }
}

}  // namespace
}  // namespace hlts
