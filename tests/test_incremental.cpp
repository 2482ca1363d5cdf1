// Tests of the incremental analysis layer (src/analysis + etpn/patch +
// testability cone updates), ctest label `incremental`:
//
//  - etpn::apply_merge_patch / revert_merge_patch round-trip the data path
//    exactly (arcs, adjacency lists, aliveness, names);
//  - a merge-patched + step-refreshed graph is equal, up to the tombstone
//    id projection, to a fresh build_etpn of the merged binding;
//  - TestabilityAnalysis::update(dirty) reproduces a from-scratch analysis
//    of the patched graph bit-for-bit;
//  - analysis::DesignDelta leaves a workspace untouched after destruction;
//  - an incremental trial produces bit-identical numbers to the
//    from-scratch reference trial;
//  - every Algorithm-1 iteration of every flow, on every benchmark and on
//    random designs, is bit-identical to the from-scratch reference step
//    replayed from the previous checkpoint
//    (tests/support/reference_synthesis.hpp).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/incremental.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "core/resched.hpp"
#include "core/synthesis.hpp"
#include "cost/cost.hpp"
#include "etpn/patch.hpp"
#include "petri/petri.hpp"
#include "sched/schedule.hpp"
#include "support/dfg_fixtures.hpp"
#include "support/reference_synthesis.hpp"
#include "testability/balance.hpp"

namespace hlts {
namespace {

using test_support::random_dfg;
using test_support::reference_trial;
using test_support::replay_against_reference;
using test_support::replay_flow_against_reference;

/// Complete observable state of a data path, for exact round-trip checks.
struct DpSnapshot {
  struct Node {
    etpn::DpNodeKind kind;
    std::string name;
    bool alive;
    std::vector<etpn::DpArcId> in_arcs, out_arcs;
    bool operator==(const Node&) const = default;
  };
  struct Arc {
    etpn::DpNodeId from, to;
    int to_port;
    std::vector<int> steps;
    bool alive;
    bool operator==(const Arc&) const = default;
  };
  std::vector<Node> nodes;
  std::vector<Arc> arcs;
  std::size_t alive_nodes = 0, alive_arcs = 0;
  bool operator==(const DpSnapshot&) const = default;
};

DpSnapshot dp_snapshot(const etpn::DataPath& dp) {
  DpSnapshot s;
  for (etpn::DpNodeId n : dp.node_ids()) {
    const etpn::DpNode& node = dp.node(n);
    const util::Span<etpn::DpArcId> in = dp.in_arcs(n);
    const util::Span<etpn::DpArcId> out = dp.out_arcs(n);
    s.nodes.push_back({node.kind, node.name, dp.alive(n),
                       std::vector<etpn::DpArcId>(in.begin(), in.end()),
                       std::vector<etpn::DpArcId>(out.begin(), out.end())});
  }
  for (etpn::DpArcId a : dp.arc_ids()) {
    const etpn::DpArc& arc = dp.arc(a);
    const util::Span<int> steps = dp.steps(a);
    s.arcs.push_back({arc.from, arc.to, arc.to_port,
                      std::vector<int>(steps.begin(), steps.end()),
                      dp.alive(a)});
  }
  s.alive_nodes = dp.num_alive_nodes();
  s.alive_arcs = dp.num_alive_arcs();
  return s;
}

/// Structural snapshot of a binding's group contents.
struct BindingSnapshot {
  std::vector<std::pair<std::uint32_t, std::vector<dfg::OpId>>> modules;
  std::vector<std::pair<std::uint32_t, std::vector<dfg::VarId>>> regs;
  bool operator==(const BindingSnapshot&) const = default;
};

BindingSnapshot binding_snapshot(const etpn::Binding& b) {
  BindingSnapshot s;
  for (etpn::ModuleId m : b.alive_modules()) {
    s.modules.emplace_back(m.value(), b.module_ops(m));
  }
  for (etpn::RegId r : b.alive_regs()) {
    s.regs.emplace_back(r.value(), b.reg_vars(r));
  }
  return s;
}

/// Initial design of a DFG: ASAP schedule, identity binding, fresh ETPN.
struct Design {
  sched::Schedule s;
  etpn::Binding b;
  etpn::Etpn e;
};

Design make_design(const dfg::Dfg& g) {
  Design d;
  d.s = sched::asap(g);
  d.b = etpn::Binding::default_binding(g, etpn::ModuleCompat::ExactKind);
  d.e = etpn::build_etpn(g, d.s, d.b);
  return d;
}

std::vector<testability::MergeCandidate> all_candidates(const dfg::Dfg& g,
                                                        const Design& d) {
  testability::TestabilityAnalysis analysis(d.e.data_path);
  const int all = static_cast<int>(d.e.data_path.num_nodes() *
                                   d.e.data_path.num_nodes());
  return testability::select_balance_candidates(g, d.b, d.e, analysis, all,
                                                {});
}

class OnBenchmark : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, OnBenchmark,
                         ::testing::ValuesIn(benchmarks::benchmark_names()),
                         [](const auto& info) { return info.param; });

TEST_P(OnBenchmark, MergePatchRoundTrips) {
  dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  Design d = make_design(g);
  std::vector<testability::MergeCandidate> cands = all_candidates(g, d);
  ASSERT_FALSE(cands.empty());

  const DpSnapshot before = dp_snapshot(d.e.data_path);
  int tried = 0;
  for (const testability::MergeCandidate& cand : cands) {
    if (tried >= 8) break;
    ++tried;
    const auto [into, from] = cand.nodes(d.e);
    const std::string label = "merged";
    util::Arena arena;
    etpn::MergePatch patch =
        etpn::apply_merge_patch(d.e.data_path, arena, into, from, &label);
    EXPECT_FALSE(d.e.data_path.alive(from));
    EXPECT_EQ(d.e.data_path.node(into).name, "merged");
    EXPECT_GT(patch.approx_bytes(), 0u);
    etpn::revert_merge_patch(d.e.data_path, patch);
    EXPECT_EQ(dp_snapshot(d.e.data_path), before) << cand.description(g, d.b);
  }
}

/// Checks that the alive projection of `patched` equals the compact graph
/// `fresh`: same nodes in the same order (kind + name), same arcs in the
/// same order (mapped endpoints, port, steps).
void expect_alive_projection_equal(const etpn::DataPath& patched,
                                   const etpn::DataPath& fresh) {
  std::vector<int> node_rank(patched.num_nodes(), -1);
  std::vector<etpn::DpNodeId> alive_nodes;
  for (etpn::DpNodeId n : patched.node_ids()) {
    if (!patched.alive(n)) continue;
    node_rank[n.index()] = static_cast<int>(alive_nodes.size());
    alive_nodes.push_back(n);
  }
  ASSERT_EQ(alive_nodes.size(), fresh.num_nodes());
  for (std::size_t i = 0; i < alive_nodes.size(); ++i) {
    const etpn::DpNode& pn = patched.node(alive_nodes[i]);
    const etpn::DpNode& fn =
        fresh.node(etpn::DpNodeId{static_cast<std::uint32_t>(i)});
    EXPECT_EQ(pn.kind, fn.kind) << "node " << i;
    EXPECT_EQ(pn.name, fn.name) << "node " << i;
  }
  std::vector<etpn::DpArcId> alive_arcs;
  for (etpn::DpArcId a : patched.arc_ids()) {
    if (patched.alive(a)) alive_arcs.push_back(a);
  }
  ASSERT_EQ(alive_arcs.size(), fresh.num_arcs());
  for (std::size_t i = 0; i < alive_arcs.size(); ++i) {
    const etpn::DpArc& pa = patched.arc(alive_arcs[i]);
    const etpn::DpArc& fa =
        fresh.arc(etpn::DpArcId{static_cast<std::uint32_t>(i)});
    EXPECT_EQ(node_rank[pa.from.index()], static_cast<int>(fa.from.value()))
        << "arc " << i;
    EXPECT_EQ(node_rank[pa.to.index()], static_cast<int>(fa.to.value()))
        << "arc " << i;
    EXPECT_EQ(pa.to_port, fa.to_port) << "arc " << i;
    const util::Span<int> psteps = patched.steps(alive_arcs[i]);
    const util::Span<int> fsteps =
        fresh.steps(etpn::DpArcId{static_cast<std::uint32_t>(i)});
    EXPECT_TRUE(std::equal(psteps.begin(), psteps.end(), fsteps.begin(),
                           fsteps.end()))
        << "arc " << i;
  }
}

TEST_P(OnBenchmark, PatchedGraphMatchesFreshBuild) {
  dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  Design d = make_design(g);
  std::vector<testability::MergeCandidate> cands = all_candidates(g, d);
  ASSERT_FALSE(cands.empty());

  int checked = 0;
  for (const testability::MergeCandidate& cand : cands) {
    if (checked >= 5) break;
    etpn::Binding merged = d.b;
    cand.apply(g, merged);
    core::ReschedOutcome r =
        core::reschedule(g, merged, d.s, core::OrderStrategy::Testability);
    if (!r.feasible) continue;
    ++checked;

    etpn::Etpn patched = d.e;
    const auto [into, from] = cand.nodes(patched);
    const std::string label = cand.merged_label(g, merged);
    util::Arena arena;
    etpn::apply_merge_patch(patched.data_path, arena, into, from, &label);
    etpn::refresh_etpn_steps(patched, g, r.schedule, merged);

    etpn::Etpn fresh = etpn::build_etpn(g, r.schedule, merged);
    expect_alive_projection_equal(patched.data_path, fresh.data_path);
    EXPECT_EQ(petri::critical_path(patched.control).length,
              petri::critical_path(fresh.control).length);
  }
  EXPECT_GT(checked, 0) << "no feasible candidate on " << GetParam();
}

TEST_P(OnBenchmark, TestabilityUpdateEqualsFromScratch) {
  dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  Design d = make_design(g);
  std::vector<testability::MergeCandidate> cands = all_candidates(g, d);
  ASSERT_FALSE(cands.empty());

  int checked = 0;
  for (const testability::MergeCandidate& cand : cands) {
    if (checked >= 5) break;
    ++checked;
    etpn::Etpn patched = d.e;  // private copy; the patch is not reverted
    testability::TestabilityAnalysis incremental(patched.data_path);
    const auto [into, from] = cand.nodes(patched);
    util::Arena arena;
    etpn::apply_merge_patch(patched.data_path, arena, into, from);
    const testability::TestabilityAnalysis::UpdateStats stats =
        incremental.update({into});
    EXPECT_GT(stats.node_visits, 0);

    const testability::TestabilityAnalysis scratch(patched.data_path);
    for (etpn::DpArcId a : patched.data_path.arc_ids()) {
      if (!patched.data_path.alive(a)) continue;
      EXPECT_EQ(incremental.line_controllability(a).comb,
                scratch.line_controllability(a).comb)
          << "cc arc " << a.value();
      EXPECT_EQ(incremental.line_controllability(a).seq,
                scratch.line_controllability(a).seq)
          << "cc arc " << a.value();
      EXPECT_EQ(incremental.line_observability(a).comb,
                scratch.line_observability(a).comb)
          << "co arc " << a.value();
      EXPECT_EQ(incremental.line_observability(a).seq,
                scratch.line_observability(a).seq)
          << "co arc " << a.value();
    }
    EXPECT_EQ(incremental.balance_index(), scratch.balance_index());
  }
}

TEST_P(OnBenchmark, DesignDeltaRestoresWorkspace) {
  dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  core::SynthesisParams p;
  analysis::IncrementalContext ctx(g, p.library, p.bits);
  Design d = make_design(g);
  ctx.attach(d.s, d.b);
  std::vector<testability::MergeCandidate> cands = all_candidates(g, d);
  ASSERT_FALSE(cands.empty());

  std::unique_ptr<analysis::TrialWorkspace> ws = ctx.checkout();
  const DpSnapshot dp_before = dp_snapshot(ws->etpn.data_path);
  const BindingSnapshot b_before = binding_snapshot(ws->binding);
  for (std::size_t i = 0; i < cands.size() && i < 6; ++i) {
    {
      analysis::DesignDelta delta(g, *ws, cands[i]);
      EXPECT_NE(dp_snapshot(ws->etpn.data_path), dp_before);
    }
    EXPECT_EQ(dp_snapshot(ws->etpn.data_path), dp_before);
    EXPECT_EQ(binding_snapshot(ws->binding), b_before);
  }
  ctx.checkin(std::move(ws));
}

TEST_P(OnBenchmark, IncrementalTrialMatchesFullTrial) {
  dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  core::SynthesisParams p;
  Design d = make_design(g);
  const int max_latency = g.critical_path_ops() + 1;
  analysis::IncrementalContext ctx(g, p.library, p.bits);
  ctx.attach(d.s, d.b);

  std::vector<testability::MergeCandidate> cands = all_candidates(g, d);
  ASSERT_FALSE(cands.empty());
  for (std::size_t i = 0; i < cands.size() && i < 10; ++i) {
    const testability::MergeCandidate& cand = cands[i];
    const test_support::ReferenceTrial full =
        reference_trial(g, p, d.b, d.s, cand, max_latency);

    // Incremental pipeline: workspace patch -> premerged reschedule ->
    // tombstone-aware cost.
    std::unique_ptr<analysis::TrialWorkspace> ws = ctx.checkout();
    bool inc_feasible = false;
    double inc_cost = 0;
    int inc_len = 0;
    {
      analysis::DesignDelta delta(g, *ws, cand);
      core::ReschedOutcome inc_r = core::reschedule(
          g, ws->binding, d.s, core::OrderStrategy::Testability, &ws->etpn);
      inc_feasible = inc_r.feasible && inc_r.schedule.length() <= max_latency;
      if (inc_feasible) {
        inc_len = inc_r.schedule.length();
        inc_cost = cost::estimate_cost(ws->etpn.data_path, p.library, p.bits,
                                       ws->cost)
                       .total();
        EXPECT_EQ(inc_r.schedule, full.schedule);
      }
    }
    ctx.checkin(std::move(ws));

    EXPECT_EQ(inc_feasible, full.feasible) << cand.description(g, d.b);
    if (full.feasible && inc_feasible) {
      EXPECT_EQ(inc_len, full.exec_time);
      EXPECT_EQ(inc_cost, full.hw_cost) << cand.description(g, d.b);
    }
  }
}

TEST_P(OnBenchmark, CommittedStatePassesAuditAndMatchesScratch) {
  dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  core::SynthesisParams p;
  p.audit = true;  // tombstone-aware audit runs after every commit
  replay_against_reference(g, p);
}

class FlowGrid
    : public ::testing::TestWithParam<std::tuple<std::string, core::FlowKind>> {
};

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllFlows, FlowGrid,
    ::testing::Combine(::testing::ValuesIn(benchmarks::benchmark_names()),
                       ::testing::Values(core::FlowKind::Camad,
                                         core::FlowKind::Approach1,
                                         core::FlowKind::Approach2,
                                         core::FlowKind::Ours)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_flow" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

TEST_P(FlowGrid, IncrementalFlowBitIdenticalToFullRecompute) {
  const auto& [bench, kind] = GetParam();
  replay_flow_against_reference(kind, benchmarks::make_benchmark(bench), {});
}

// The two modes: the incremental production step and the from-scratch
// reference step it is replayed against.
TEST(IncrementalRandomDesigns, FlowsBitIdenticalAcrossModes) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    dfg::Dfg g = random_dfg(4200 + seed, 4 + static_cast<int>(seed % 4),
                            8 + static_cast<int>(seed) * 2);
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      replay_flow_against_reference(kind, g, {});
    }
  }
}

TEST(IncrementalRandomDesigns, PatchUndoRoundTripsOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    dfg::Dfg g = random_dfg(5100 + seed, 3 + static_cast<int>(seed % 5),
                            6 + static_cast<int>(seed) * 2);
    Design d = make_design(g);
    std::vector<testability::MergeCandidate> cands = all_candidates(g, d);
    const DpSnapshot before = dp_snapshot(d.e.data_path);
    for (std::size_t i = 0; i < cands.size() && i < 4; ++i) {
      const auto [into, from] = cands[i].nodes(d.e);
      util::Arena arena;
      etpn::MergePatch patch =
          etpn::apply_merge_patch(d.e.data_path, arena, into, from);
      etpn::revert_merge_patch(d.e.data_path, patch);
      EXPECT_EQ(dp_snapshot(d.e.data_path), before) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace hlts
