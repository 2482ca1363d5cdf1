// Cross-cutting property tests:
//  - left-edge register packing is optimal (interval-graph coloring reaches
//    the max-live lower bound) on every benchmark and scheduler;
//  - the 64-lane parallel three-valued simulator agrees with an independent
//    scalar reference simulator on random circuits and stimuli;
//  - synthesis results are deterministic across repeated runs.
#include <gtest/gtest.h>

#include <map>

#include "alloc/alloc.hpp"
#include "atpg/wide_sim.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "sched/fds.hpp"
#include "sched/lifetime.hpp"
#include "support/reference_synthesis.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace hlts {
namespace {

class LeftEdgeOptimality : public ::testing::TestWithParam<std::string> {};

TEST_P(LeftEdgeOptimality, ReachesMaxLiveLowerBound) {
  dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  const int latency = g.critical_path_ops() + 1;
  sched::Schedule s = sched::force_directed_schedule(g, {.latency = latency});
  sched::LifetimeTable lifetimes = sched::LifetimeTable::compute(g, s);
  etpn::Binding b = alloc::allocate(g, s, {.lee_rules = false});
  // Interval-graph coloring: first-fit on sorted intervals is optimal, so
  // the register count must equal the maximum number of simultaneously
  // live variables.
  EXPECT_EQ(b.num_alive_regs(), lifetimes.max_live()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, LeftEdgeOptimality,
                         ::testing::ValuesIn(benchmarks::benchmark_names()),
                         [](const auto& info) { return info.param; });

/// Independent scalar three-valued reference simulator.
class ReferenceSim {
 public:
  explicit ReferenceSim(const gates::Netlist& nl) : nl_(nl) {
    values_.assign(nl.num_gates(), 'x');
    state_.assign(nl.num_gates(), 'x');
  }

  void step(const atpg::TestVector& inputs) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      values_[nl_.inputs()[i].index()] = inputs[i] ? '1' : '0';
    }
    for (gates::GateId g : nl_.gate_ids()) {
      if (nl_.gate(g).kind == gates::GateKind::Const0) values_[g.index()] = '0';
      if (nl_.gate(g).kind == gates::GateKind::Const1) values_[g.index()] = '1';
      if (nl_.gate(g).kind == gates::GateKind::Dff) {
        values_[g.index()] = state_[g.index()];
      }
    }
    for (gates::GateId g : nl_.levelized()) {
      values_[g.index()] = eval(g);
    }
    for (gates::GateId d : nl_.dffs()) {
      state_[d.index()] = values_[nl_.gate(d).inputs[0].index()];
    }
  }

  [[nodiscard]] char value(gates::GateId g) const { return values_[g.index()]; }

 private:
  char eval(gates::GateId id) const {
    const gates::Gate& g = nl_.gate(id);
    auto v = [&](std::size_t i) { return values_[g.inputs[i].index()]; };
    auto inv = [](char c) { return c == 'x' ? 'x' : (c == '1' ? '0' : '1'); };
    switch (g.kind) {
      case gates::GateKind::Buf:
      case gates::GateKind::Output:
        return v(0);
      case gates::GateKind::Not:
        return inv(v(0));
      case gates::GateKind::And:
      case gates::GateKind::Nand: {
        bool any_zero = false, all_one = true;
        for (std::size_t i = 0; i < g.inputs.size(); ++i) {
          if (v(i) == '0') any_zero = true;
          if (v(i) != '1') all_one = false;
        }
        char r = any_zero ? '0' : (all_one ? '1' : 'x');
        return g.kind == gates::GateKind::Nand ? inv(r) : r;
      }
      case gates::GateKind::Or:
      case gates::GateKind::Nor: {
        bool any_one = false, all_zero = true;
        for (std::size_t i = 0; i < g.inputs.size(); ++i) {
          if (v(i) == '1') any_one = true;
          if (v(i) != '0') all_zero = false;
        }
        char r = any_one ? '1' : (all_zero ? '0' : 'x');
        return g.kind == gates::GateKind::Nor ? inv(r) : r;
      }
      case gates::GateKind::Xor:
      case gates::GateKind::Xnor: {
        if (v(0) == 'x' || v(1) == 'x') return 'x';
        char r = v(0) != v(1) ? '1' : '0';
        return g.kind == gates::GateKind::Xnor ? inv(r) : r;
      }
      case gates::GateKind::Mux: {
        if (v(0) == '0') return v(1);
        if (v(0) == '1') return v(2);
        return (v(1) != 'x' && v(1) == v(2)) ? v(1) : 'x';
      }
      default:
        return 'x';
    }
  }

  const gates::Netlist& nl_;
  std::vector<char> values_, state_;
};

TEST(SimulatorCrossCheck, ParallelAgreesWithScalarReference) {
  // Random sequential circuits, random stimulus; every gate value must
  // agree between the word-parallel and the scalar simulator.
  Rng rng(404);
  for (int trial = 0; trial < 6; ++trial) {
    gates::Netlist nl;
    std::vector<gates::GateId> pool;
    for (int i = 0; i < 4; ++i) {
      pool.push_back(nl.add_input(hlts::cat("i", std::to_string(i))));
    }
    std::vector<gates::GateId> dffs;
    for (int i = 0; i < 3; ++i) {
      gates::GateId d = nl.add_dff(hlts::cat("d", std::to_string(i)));
      dffs.push_back(d);
      pool.push_back(d);
    }
    const gates::GateKind kinds[] = {
        gates::GateKind::And,  gates::GateKind::Or,   gates::GateKind::Nand,
        gates::GateKind::Nor,  gates::GateKind::Xor,  gates::GateKind::Xnor,
        gates::GateKind::Not,  gates::GateKind::Mux,  gates::GateKind::Buf};
    for (int i = 0; i < 40; ++i) {
      const gates::GateKind kind = kinds[rng.next_below(std::size(kinds))];
      const int arity = gates::gate_arity(kind) < 0 ? 2 : gates::gate_arity(kind);
      std::vector<gates::GateId> ins;
      for (int j = 0; j < arity; ++j) {
        ins.push_back(pool[rng.next_below(pool.size())]);
      }
      pool.push_back(nl.add_gate(kind, ins));
    }
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      nl.connect_dff(dffs[i], pool[pool.size() - 1 - i]);
    }
    nl.add_output(pool.back(), "o");
    nl.validate();

    atpg::WideSimulator<1> par(nl);
    par.reset_state();
    ReferenceSim ref(nl);
    for (int cycle = 0; cycle < 20; ++cycle) {
      atpg::TestVector v(nl.inputs().size());
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
      par.step(v);
      ref.step(v);
      for (gates::GateId g : nl.gate_ids()) {
        const bool p1 = par.plane_one(g).lane(0);
        const bool p0 = par.plane_zero(g).lane(0);
        const char expect = ref.value(g);
        const char got = p1 ? '1' : (p0 ? '0' : 'x');
        ASSERT_EQ(got, expect)
            << "trial " << trial << " cycle " << cycle << " gate " << g.value();
      }
    }
  }
}

TEST(Determinism, FlowsAreBitStableAcrossRuns) {
  for (const std::string& name : {std::string("ex"), std::string("dct")}) {
    dfg::Dfg g1 = benchmarks::make_benchmark(name);
    dfg::Dfg g2 = benchmarks::make_benchmark(name);
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      core::FlowResult a = core::run_flow(kind, g1, {.bits = 8});
      core::FlowResult b = core::run_flow(kind, g2, {.bits = 8});
      EXPECT_EQ(a.schedule, b.schedule);
      EXPECT_EQ(a.module_allocation, b.module_allocation);
      EXPECT_EQ(a.register_allocation, b.register_allocation);
      EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total());
    }
  }
}

// The incremental analysis layer and the from-scratch reference step are
// interchangeable bit-for-bit at every Algorithm-1 iteration (deeper
// coverage in test_incremental.cpp; this keeps the property visible in the
// main suite).
TEST(Determinism, IncrementalAnalysisIsBitIdenticalToFullRecompute) {
  for (const std::string& name : {std::string("ex"), std::string("ewf")}) {
    dfg::Dfg g = benchmarks::make_benchmark(name);
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      test_support::replay_flow_against_reference(kind, g, {.bits = 8});
    }
  }
}

}  // namespace
}  // namespace hlts
