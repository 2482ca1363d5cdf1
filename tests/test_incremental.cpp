// Tests of the incremental analysis layer (src/analysis + etpn/patch),
// ctest label `incremental`:
//
//  - etpn::apply_merge_patch / revert_merge_patch round-trip the data path
//    exactly (arcs, adjacency lists, aliveness, names);
//  - a merge-patched graph has, up to the tombstone id projection, the node
//    kinds and arcs of a fresh build_etpn of the merged binding;
//  - the state IncrementalContext::commit derives (ETPN, testability
//    fixpoint, balance index, critical path, cost) equals that of a context
//    freshly attached to the committed design, bit for bit;
//  - analysis::DesignDelta leaves a workspace untouched after destruction;
//  - an incremental trial produces bit-identical numbers to the
//    from-scratch reference trial;
//  - every Algorithm-1 iteration of every flow, on every benchmark and on
//    random designs, is bit-identical to the from-scratch reference step
//    replayed from the previous checkpoint
//    (tests/support/reference_synthesis.hpp);
//  - the production rescheduler -- stand-alone and as a per-iteration base
//    edited by each trial merger -- floorplanner and binding check match
//    their frozen reference copies (tests/support/reference_layers.hpp)
//    over random merge walks, merge-patched graphs, random data paths and
//    random schedules;
//  - every commit's hardware cost, taken over from the winning trial,
//    equals a frozen estimate of the committed data path.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/incremental.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/checkpoint.hpp"
#include "core/flows.hpp"
#include "core/resched.hpp"
#include "core/synthesis.hpp"
#include "cost/cost.hpp"
#include "etpn/patch.hpp"
#include "petri/petri.hpp"
#include "sched/schedule.hpp"
#include "support/dfg_fixtures.hpp"
#include "support/reference_layers.hpp"
#include "support/reference_synthesis.hpp"
#include "testability/balance.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace hlts {
namespace {

using test_support::random_dfg;
using test_support::reference_trial;
using test_support::replay_against_reference;
using test_support::replay_flow_against_reference;

/// Bitwise equality of two doubles (EXPECT_EQ on doubles compares values,
/// which would let -0.0 match 0.0).
::testing::AssertionResult same_bits(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " vs " << b;
}

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
    util::Arena arena;
    etpn::MergePatch patch =
        etpn::apply_merge_patch(d.e.data_path, arena, into, from);
    EXPECT_FALSE(d.e.data_path.alive(from));
    EXPECT_GT(patch.approx_bytes(), 0u);
    etpn::revert_merge_patch(d.e.data_path, patch);
    EXPECT_EQ(dp_snapshot(d.e.data_path), before) << cand.description(g, d.b);
  }
}

/// Checks that the alive projection of `patched` equals the compact graph
/// `fresh`: same nodes in the same order (kind, and name when
/// `names_and_steps`), same arcs in the same order (mapped endpoints, port,
/// and steps when `names_and_steps`).
void expect_alive_projection_equal(const etpn::DataPath& patched,
                                   const etpn::DataPath& fresh,
                                   bool names_and_steps) {
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
    if (names_and_steps) {
      EXPECT_EQ(pn.name, fn.name) << "node " << i;
    }
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
    if (!names_and_steps) continue;
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

    // A trial patch leaves names and steps stale (no trial consumer reads
    // them); the structure must match the fresh build.
    etpn::Etpn patched = d.e;
    const auto [into, from] = cand.nodes(patched);
    util::Arena arena;
    etpn::apply_merge_patch(patched.data_path, arena, into, from);

    etpn::Etpn fresh = etpn::build_etpn(g, r.schedule, merged);
    expect_alive_projection_equal(patched.data_path, fresh.data_path,
                                  /*names_and_steps=*/false);
  }
  EXPECT_GT(checked, 0) << "no feasible candidate on " << GetParam();
}

/// A run of Algorithm 1 under `p` and, for each of its first `limit`
/// commits, a run resumed from the checkpoint before it and stopped right
/// after it -- so that run's cost is the one the commit took over from its
/// winning trial.
struct CommitRuns {
  core::SynthesisResult full;
  std::vector<core::SynthesisResult> commits;  ///< [i]: stopped after i + 1
};

void run_per_commit(const dfg::Dfg& g, core::SynthesisParams p,
                    std::size_t limit, CommitRuns& out) {
  std::vector<core::Checkpoint> checkpoints{
      {0, sched::asap(g), etpn::Binding::default_binding(g, p.compat)}};
  p.checkpoint_every = 1;
  p.on_checkpoint = [&](const core::Checkpoint& c) {
    checkpoints.push_back(c);
  };
  out.full = core::integrated_synthesis(g, p);
  p.on_checkpoint = nullptr;
  out.commits.clear();
  for (std::size_t i = 0; i < out.full.trajectory.size() && i < limit; ++i) {
    SCOPED_TRACE(g.name() + " commit " + std::to_string(i));
    core::SynthesisParams one = p;
    one.resume_from = &checkpoints[i];
    one.max_iterations = static_cast<int>(i) + 1;
    out.commits.push_back(core::integrated_synthesis(g, one));
    ASSERT_EQ(out.commits.back().iterations, static_cast<int>(i) + 1);
  }
}

// Walks the first commits of real Algorithm-1 runs through one
// IncrementalContext, each with its winning trial's schedule and cost, and
// checks that the state commit() derives equals that of a context freshly
// attached to the committed design.
TEST_P(OnBenchmark, TestabilityUpdateEqualsFromScratch) {
  const dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  std::size_t walked = 0;
  for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
    SCOPED_TRACE(core::flow_name(kind));
    const core::SynthesisParams p = core::synthesis_params(kind, {});
    CommitRuns runs;
    ASSERT_NO_FATAL_FAILURE(run_per_commit(g, p, 5, runs));
    walked += runs.commits.size();

    analysis::IncrementalContext ctx(g, p.library, p.bits);
    ctx.attach(sched::asap(g), etpn::Binding::default_binding(g, p.compat));
    for (std::size_t i = 0; i < runs.commits.size(); ++i) {
      SCOPED_TRACE("commit " + std::to_string(i + 1));
      const core::SynthesisResult& r = runs.commits[i];
      ctx.commit(r.binding, r.schedule, r.cost);
      analysis::IncrementalContext fresh(g, p.library, p.bits);
      fresh.attach(r.schedule, r.binding);

      const etpn::DataPath& dp = ctx.etpn().data_path;
      expect_alive_projection_equal(dp, fresh.etpn().data_path,
                                    /*names_and_steps=*/true);
      std::uint32_t rank = 0;
      for (etpn::DpArcId a : dp.arc_ids()) {
        if (!dp.alive(a)) continue;
        const etpn::DpArcId fa{rank++};
        const testability::Measure cc = ctx.analysis().line_controllability(a);
        const testability::Measure co = ctx.analysis().line_observability(a);
        const testability::Measure fcc =
            fresh.analysis().line_controllability(fa);
        const testability::Measure fco =
            fresh.analysis().line_observability(fa);
        EXPECT_TRUE(same_bits(cc.comb, fcc.comb)) << "CC arc " << a.value();
        EXPECT_TRUE(same_bits(cc.seq, fcc.seq)) << "SC arc " << a.value();
        EXPECT_TRUE(same_bits(co.comb, fco.comb)) << "CO arc " << a.value();
        EXPECT_TRUE(same_bits(co.seq, fco.seq)) << "SO arc " << a.value();
      }
      EXPECT_TRUE(same_bits(ctx.analysis().balance_index(),
                            fresh.analysis().balance_index()));
      EXPECT_EQ(petri::critical_path(ctx.etpn().control).length,
                petri::critical_path(fresh.etpn().control).length);
      EXPECT_TRUE(same_bits(ctx.cost().module_area, fresh.cost().module_area));
      EXPECT_TRUE(
          same_bits(ctx.cost().register_area, fresh.cost().register_area));
      EXPECT_TRUE(same_bits(ctx.cost().mux_area, fresh.cost().mux_area));
      EXPECT_TRUE(same_bits(ctx.cost().wire_area, fresh.cost().wire_area));
    }
  }
  EXPECT_GT(walked, 0u);
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

// ---------------------------------------------------------------------------
// Differential tests: the production rescheduler (one reusable constraint
// graph, swaps solved over their forward cone) and floorplanner (dense
// occupancy grid) against the frozen copies in
// tests/support/reference_layers.hpp.
// ---------------------------------------------------------------------------

/// The designs the differential tests walk: the six benchmarks, seeded
/// random DAGs, and generated designs with loop-carried state (a primary
/// input and a registered primary output per loop variable) and with
/// memory-port token chains.
std::vector<dfg::Dfg> differential_designs() {
  std::vector<dfg::Dfg> designs;
  for (const std::string& name : benchmarks::benchmark_names()) {
    designs.push_back(benchmarks::make_benchmark(name));
  }
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    designs.push_back(random_dfg(6100 + seed, 3 + static_cast<int>(seed),
                                 10 + 4 * static_cast<int>(seed)));
  }
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    workload::DfgShape loopy;
    loopy.ops = 30;
    loopy.depth = 6;
    loopy.loop_density = 0.3;
    loopy.self_loop_density = 0.5;
    designs.push_back(workload::generate(seed, loopy));
    workload::DfgShape memory;
    memory.ops = 30;
    memory.depth = 6;
    memory.memories = 2;
    memory.memory_access_density = 0.2;
    designs.push_back(workload::generate(seed, memory));
  }
  return designs;
}

/// What a merge walk exercised.
struct WalkStats {
  int feasible = 0;
  int infeasible = 0;
  int pi_chains = 0;  ///< feasible reschedules with a PI sharing a register
  int po_chains = 0;  ///< ... with a registered PO sharing a register
};

/// Applies one random mergeable pair (a module pair or a register pair) to
/// `b`; false when none was found.
bool merge_random_pair(const dfg::Dfg& g, etpn::Binding& b, Rng& rng) {
  const bool modules_first = rng.next_bool();
  for (int kind = 0; kind < 2; ++kind) {
    if ((kind == 0) == modules_first) {
      const std::vector<etpn::ModuleId> alive = b.alive_modules();
      for (int attempt = 0; attempt < 32 && alive.size() > 1; ++attempt) {
        const etpn::ModuleId x = alive[rng.next_below(alive.size())];
        const etpn::ModuleId y = alive[rng.next_below(alive.size())];
        if (!b.can_merge_modules(g, x, y)) continue;
        b.merge_modules(g, x, y);
        return true;
      }
    } else {
      const std::vector<etpn::RegId> alive = b.alive_regs();
      for (int attempt = 0; attempt < 32 && alive.size() > 1; ++attempt) {
        const etpn::RegId x = alive[rng.next_below(alive.size())];
        const etpn::RegId y = alive[rng.next_below(alive.size())];
        if (!b.can_merge_regs(x, y)) continue;
        b.merge_regs(x, y);
        return true;
      }
    }
  }
  return false;
}

/// Walks a random merge sequence from the ASAP design, rescheduling every
/// merged binding with both rescheduler copies and requiring identical
/// feasibility and schedules.  A feasible merger becomes the next design; an
/// infeasible one is dropped.  Every other call passes a premerged ETPN.
void walk_merges(const dfg::Dfg& g, core::OrderStrategy strategy,
                 std::uint64_t seed, int steps, WalkStats& stats) {
  Rng rng(seed);
  sched::Schedule s = sched::asap(g);
  etpn::Binding b =
      etpn::Binding::default_binding(g, etpn::ModuleCompat::ExactKind);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    etpn::Binding merged = b;
    if (!merge_random_pair(g, merged, rng)) return;
    std::optional<etpn::Etpn> premerged;
    if (step % 2 == 1) premerged.emplace(etpn::build_etpn(g, s, merged));
    const core::ReschedOutcome ours = core::reschedule(
        g, merged, s, strategy, premerged ? &*premerged : nullptr);
    const core::ReschedOutcome ref =
        test_support::reference_reschedule(g, merged, s, strategy);
    ASSERT_EQ(ours.feasible, ref.feasible);
    if (!ref.feasible) {
      ++stats.infeasible;
      continue;
    }
    ASSERT_EQ(ours.schedule, ref.schedule);
    ++stats.feasible;
    for (etpn::RegId r : merged.alive_regs()) {
      const std::vector<dfg::VarId>& vars = merged.reg_vars(r);
      if (vars.size() < 2) continue;
      for (dfg::VarId v : vars) {
        const dfg::Variable& var = g.var(v);
        if (var.is_primary_input) ++stats.pi_chains;
        if (var.is_primary_output && var.po_registered) ++stats.po_chains;
      }
    }
    b = std::move(merged);
    s = ref.schedule;
  }
}

TEST(ReschedDifferential, RandomMergeWalksMatchFrozenRescheduler) {
  const std::vector<dfg::Dfg> designs = differential_designs();
  for (auto strategy :
       {core::OrderStrategy::Testability, core::OrderStrategy::Plain}) {
    WalkStats stats;
    for (std::size_t d = 0; d < designs.size(); ++d) {
      SCOPED_TRACE(designs[d].name() + " strategy " +
                   std::to_string(static_cast<int>(strategy)));
      for (std::uint64_t walk = 0; walk < 3; ++walk) {
        walk_merges(designs[d], strategy, 7000 + 31 * d + walk, 40, stats);
      }
    }
    // The walks must reach both outcomes and the PI-first /
    // registered-PO-last chain pairs the swap loop never reorders.
    EXPECT_GT(stats.feasible, 100);
    EXPECT_GT(stats.infeasible, 100);
    EXPECT_GT(stats.pi_chains, 0);
    EXPECT_GT(stats.po_chains, 0);
  }
}

/// Floorplan and cost of `dp` by the production code (through a reused
/// scratch) against the frozen floorplanner.
void expect_floorplan_matches_frozen(const etpn::DataPath& dp,
                                     cost::CostScratch& scratch) {
  const cost::ModuleLibrary& lib = cost::ModuleLibrary::standard();
  const cost::Floorplan ref = test_support::reference_floorplan(dp, lib, 8);
  cost::Floorplan plan;
  cost::floorplan(dp, lib, 8, plan, scratch.floorplan);
  EXPECT_TRUE(same_bits(plan.pitch, ref.pitch));
  for (etpn::DpNodeId n : dp.node_ids()) {
    EXPECT_EQ(plan.position[n], ref.position[n]) << "node " << n.value();
  }
  const cost::HardwareCost ours = cost::estimate_cost(dp, lib, 8, scratch);
  const cost::HardwareCost frozen =
      test_support::reference_estimate_cost(dp, lib, 8);
  EXPECT_TRUE(same_bits(ours.module_area, frozen.module_area));
  EXPECT_TRUE(same_bits(ours.register_area, frozen.register_area));
  EXPECT_TRUE(same_bits(ours.mux_area, frozen.mux_area));
  EXPECT_TRUE(same_bits(ours.wire_area, frozen.wire_area));
}

TEST_P(OnBenchmark, FloorplanMatchesFrozenFloorplanner) {
  dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  Design d = make_design(g);
  cost::CostScratch scratch;
  expect_floorplan_matches_frozen(d.e.data_path, scratch);

  // Merge-patched graphs: mergers accumulate as tombstones, as in the
  // committed design of a running synthesis.
  util::Arena arena;
  int patched = 0;
  for (const testability::MergeCandidate& cand : all_candidates(g, d)) {
    if (patched >= 6) break;
    const auto [into, from] = cand.nodes(d.e);
    if (!d.e.data_path.alive(into) || !d.e.data_path.alive(from)) continue;
    (void)etpn::apply_merge_patch(d.e.data_path, arena, into, from);
    ++patched;
    SCOPED_TRACE("after " + std::to_string(patched) + " merge patches");
    expect_floorplan_matches_frozen(d.e.data_path, scratch);
  }
  EXPECT_GT(patched, 0);
}

/// A random data path of `nodes` nodes of every kind: a few hubs with 20 or
/// more neighbours, repeated arcs (the other operand port, the reverse
/// direction), self-loops, then tombstones -- nodes with their arcs, and
/// arcs alone -- detached from their endpoints' lists.
etpn::DataPath random_data_path(Rng& rng, int nodes, bool kill_nodes) {
  etpn::DataPath dp;
  const dfg::OpKind classes[] = {dfg::OpKind::Add, dfg::OpKind::Mul,
                                 dfg::OpKind::Sub, dfg::OpKind::Less};
  const etpn::DpNodeKind kinds[] = {
      etpn::DpNodeKind::InPort, etpn::DpNodeKind::OutPort,
      etpn::DpNodeKind::Register, etpn::DpNodeKind::Module};
  for (int i = 0; i < nodes; ++i) {
    etpn::DpNode node;
    node.kind = kinds[rng.next_below(4)];
    node.op_class = classes[rng.next_below(4)];
    node.name = "n" + std::to_string(i);
    (void)dp.add_node(std::move(node));
  }
  auto any = [&] {
    return etpn::DpNodeId{static_cast<std::uint32_t>(rng.next_below(nodes))};
  };
  auto port = [&] { return static_cast<int>(rng.next_below(2)); };
  const int hubs = nodes >= 24 ? 1 + nodes / 100 : 0;
  for (int h = 0; h < hubs; ++h) {
    const etpn::DpNodeId hub = any();
    const int degree = 20 + static_cast<int>(rng.next_below(12));
    for (int j = 0; j < degree; ++j) {
      if (rng.next_bool()) {
        (void)dp.add_transfer(hub, any(), port(), 1);
      } else {
        (void)dp.add_transfer(any(), hub, port(), 1);
      }
    }
  }
  const int arcs = nodes + static_cast<int>(rng.next_below(nodes + 1));
  for (int k = 0; k < arcs; ++k) {
    const etpn::DpNodeId from = any();
    const etpn::DpNodeId to = rng.next_bool(0.05) ? from : any();
    const int p = port();
    (void)dp.add_transfer(from, to, p, 1 + static_cast<int>(rng.next_below(4)));
    if (rng.next_bool(0.1)) (void)dp.add_transfer(from, to, 1 - p, 2);
    if (rng.next_bool(0.1)) (void)dp.add_transfer(to, from, p, 3);
  }
  auto kill_arc = [&](etpn::DpArcId a) {
    if (dp.alive(a)) dp.set_alive(a, false);
  };
  if (kill_nodes) {
    for (etpn::DpNodeId n : dp.node_ids()) {
      if (!rng.next_bool(0.1)) continue;
      for (etpn::DpArcId a : dp.arc_ids()) {
        if (dp.arc(a).from == n || dp.arc(a).to == n) kill_arc(a);
      }
      dp.set_alive(n, false);
    }
  }
  for (etpn::DpArcId a : dp.arc_ids()) {
    if (rng.next_bool(0.1)) kill_arc(a);
  }
  // Dead arcs leave their endpoints' lists, as the merge patcher keeps it.
  std::vector<etpn::DpArcId> kept;
  for (etpn::DpNodeId n : dp.node_ids()) {
    for (const bool in : {true, false}) {
      kept.clear();
      for (etpn::DpArcId a : in ? dp.in_arcs(n) : dp.out_arcs(n)) {
        if (dp.alive(a)) kept.push_back(a);
      }
      const auto len = static_cast<std::uint32_t>(kept.size());
      if (in) {
        dp.rewrite_in_list(n, kept.data(), len);
      } else {
        dp.rewrite_out_list(n, kept.data(), len);
      }
    }
  }
  return dp;
}

/// The largest number of alive arcs at one alive node.
int max_alive_degree(const etpn::DataPath& dp) {
  std::vector<int> degree(dp.num_nodes(), 0);
  for (etpn::DpArcId a : dp.arc_ids()) {
    if (!dp.alive(a)) continue;
    ++degree[dp.arc(a).from.index()];
    ++degree[dp.arc(a).to.index()];
  }
  return degree.empty() ? 0 : *std::max_element(degree.begin(), degree.end());
}

TEST(RegisterDistances, MatchFrozenCopyOnPatchedAndRandomGraphs) {
  auto expect_same = [](const etpn::DataPath& dp) {
    const etpn::DataPath::RegisterDistances ours = dp.register_distances();
    const etpn::DataPath::RegisterDistances frozen =
        test_support::reference_register_distances(dp);
    EXPECT_EQ(ours.d_in, frozen.d_in);
    EXPECT_EQ(ours.d_out, frozen.d_out);
  };
  for (const dfg::Dfg& g : differential_designs()) {
    SCOPED_TRACE(g.name());
    Design d = make_design(g);
    expect_same(d.e.data_path);
    util::Arena arena;
    int patched = 0;
    for (const testability::MergeCandidate& cand : all_candidates(g, d)) {
      if (patched >= 8) break;
      const auto [into, from] = cand.nodes(d.e);
      if (!d.e.data_path.alive(into) || !d.e.data_path.alive(from)) continue;
      (void)etpn::apply_merge_patch(d.e.data_path, arena, into, from);
      ++patched;
      expect_same(d.e.data_path);
    }
  }
  Rng rng(9400);
  for (int n = 1; n <= 120; n += 7) {
    expect_same(random_data_path(rng, n, false));
  }
}

TEST(FloorplanDifferential, RandomDataPathsMatchFrozenFloorplanner) {
  Rng rng(9100);
  cost::CostScratch scratch;  // reused across sizes, as a trial worker's is
  int hubs = 0;
  std::vector<int> sizes;
  for (int n = 1; n <= 40; ++n) sizes.push_back(n);
  for (int n = 47; n <= 400; n += 11) sizes.push_back(n);
  sizes.push_back(400);
  for (int n : sizes) {
    SCOPED_TRACE("nodes " + std::to_string(n));
    const etpn::DataPath dp = random_data_path(rng, n, true);
    if (max_alive_degree(dp) >= 20) ++hubs;
    expect_floorplan_matches_frozen(dp, scratch);
  }
  EXPECT_GT(hubs, 10);
}

TEST(FloorplanDifferential, LargeGridMatchesFrozenFloorplanner) {
  // At 2304 or more alive nodes the spiral's radius reaches 50, where the
  // 0.01 pull toward the origin can outweigh one grid step.
  Rng rng(9200);
  const etpn::DataPath dp = random_data_path(rng, 2400, false);
  ASSERT_GE(dp.num_alive_nodes(), 2304u);
  cost::CostScratch scratch;
  expect_floorplan_matches_frozen(dp, scratch);
}

/// Runs Algorithm 1 once per committed merger, resumed from the checkpoint
/// before it, and checks that the committed cost -- the winning trial's
/// estimate, taken over at commit -- equals a frozen estimate of a fresh
/// build of the committed design, field by field.
void expect_commit_costs_match_frozen(const dfg::Dfg& g,
                                      const core::SynthesisParams& p) {
  CommitRuns runs;
  ASSERT_NO_FATAL_FAILURE(
      run_per_commit(g, p, std::numeric_limits<std::size_t>::max(), runs));
  for (std::size_t i = 0; i <= runs.commits.size(); ++i) {
    SCOPED_TRACE(g.name() + " commit " + std::to_string(i));
    const core::SynthesisResult& r =
        i < runs.commits.size() ? runs.commits[i] : runs.full;
    const etpn::Etpn e = etpn::build_etpn(g, r.schedule, r.binding);
    const cost::HardwareCost frozen =
        test_support::reference_estimate_cost(e.data_path, p.library, p.bits);
    EXPECT_TRUE(same_bits(r.cost.module_area, frozen.module_area));
    EXPECT_TRUE(same_bits(r.cost.register_area, frozen.register_area));
    EXPECT_TRUE(same_bits(r.cost.mux_area, frozen.mux_area));
    EXPECT_TRUE(same_bits(r.cost.wire_area, frozen.wire_area));
  }
}

TEST_P(FlowGrid, CommittedCostEqualsFrozenEstimate) {
  const auto& [bench, kind] = GetParam();
  const dfg::Dfg g = benchmarks::make_benchmark(bench);
  if (kind == core::FlowKind::Approach1 || kind == core::FlowKind::Approach2) {
    // No merger loop, so no commit; the flow's one cost is a fresh estimate.
    const core::FlowParams params;
    const core::FlowResult r = core::run_flow(kind, g, params);
    ASSERT_EQ(r.iterations, 0);
    const etpn::Etpn e = etpn::build_etpn(g, r.schedule, r.binding);
    const cost::HardwareCost frozen = test_support::reference_estimate_cost(
        e.data_path, params.library, params.bits);
    EXPECT_TRUE(same_bits(r.cost.module_area, frozen.module_area));
    EXPECT_TRUE(same_bits(r.cost.register_area, frozen.register_area));
    EXPECT_TRUE(same_bits(r.cost.mux_area, frozen.mux_area));
    EXPECT_TRUE(same_bits(r.cost.wire_area, frozen.wire_area));
    return;
  }
  expect_commit_costs_match_frozen(g, core::synthesis_params(kind, {}));
}

/// Three 24-op generated designs: plain, with loop-carried state, and with
/// memory-port token chains.
std::vector<dfg::Dfg> workload_shape_designs() {
  workload::DfgShape plain;
  plain.ops = 24;
  plain.depth = 6;
  workload::DfgShape loopy = plain;
  loopy.loop_density = 0.3;
  loopy.self_loop_density = 0.5;
  workload::DfgShape memory = plain;
  memory.memories = 2;
  memory.memory_access_density = 0.2;
  std::vector<dfg::Dfg> designs;
  std::uint64_t seed = 11;
  for (const workload::DfgShape& shape : {plain, loopy, memory}) {
    designs.push_back(workload::generate(seed++, shape));
  }
  return designs;
}

TEST(CommitCost, WorkloadShapesEqualFrozenEstimate) {
  for (const dfg::Dfg& g : workload_shape_designs()) {
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      SCOPED_TRACE(core::flow_name(kind));
      expect_commit_costs_match_frozen(g, core::synthesis_params(kind, {}));
    }
  }
}

// Loop-carried state and memory tokens, which the benchmark and random_dfg
// replays do not cover.
TEST(IncrementalRandomDesigns, WorkloadShapesReplayAgainstReference) {
  for (const dfg::Dfg& g : workload_shape_designs()) {
    SCOPED_TRACE(g.name());
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      SCOPED_TRACE(core::flow_name(kind));
      replay_flow_against_reference(kind, g, {});
    }
  }
}

/// One trial's rescheduler outcome through the production path: a
/// checked-out workspace, its per-iteration base (built on first use after
/// each commit), the merge patch and reschedule_merger.
core::ReschedOutcome base_trial(const dfg::Dfg& g,
                                analysis::IncrementalContext& ctx,
                                const sched::Schedule& hint,
                                core::OrderStrategy strategy,
                                const testability::MergeCandidate& cand) {
  std::unique_ptr<analysis::TrialWorkspace> ws = ctx.checkout();
  if (ws->resched_epoch != ctx.epoch()) {
    core::build_trial_base(g, ctx.tables(), ws->binding, hint, ws->resched);
    ws->resched_epoch = ctx.epoch();
  }
  core::ReschedOutcome r;
  {
    analysis::DesignDelta delta(g, *ws, cand);
    r = core::reschedule_merger(g, ws->binding, hint, strategy, &ws->etpn,
                                cand, ws->resched);
  }
  ctx.checkin(std::move(ws));
  return r;
}

TEST(ReschedDifferential, BaseGraphTrialsMatchFrozenRescheduler) {
  // Random merge walks: at each committed state every candidate of the
  // ranking is rescheduled through the per-iteration base, serially and on
  // four threads (four workspaces, four bases over shared tables), and
  // compared with the frozen from-scratch rescheduler.
  std::vector<dfg::Dfg> designs;
  for (const std::string& name : benchmarks::benchmark_names()) {
    designs.push_back(benchmarks::make_benchmark(name));
  }
  const std::vector<dfg::Dfg> more = differential_designs();
  designs.insert(designs.end(), more.end() - 4, more.end());  // loopy, memory
  util::ThreadPool pool(4);
  int feasible = 0;
  int infeasible = 0;
  for (auto strategy :
       {core::OrderStrategy::Testability, core::OrderStrategy::Plain}) {
    for (std::size_t d = 0; d < designs.size(); ++d) {
      const dfg::Dfg& g = designs[d];
      SCOPED_TRACE(g.name() + " strategy " +
                   std::to_string(static_cast<int>(strategy)));
      Rng rng(8100 + 17 * d + static_cast<std::uint64_t>(strategy));
      const cost::ModuleLibrary& lib = cost::ModuleLibrary::standard();
      analysis::IncrementalContext ctx(g, lib, 8);
      sched::Schedule s = sched::asap(g);
      etpn::Binding b =
          etpn::Binding::default_binding(g, etpn::ModuleCompat::ExactKind);
      ctx.attach(s, b);
      for (int step = 0; step < 6; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        testability::TestabilityAnalysis analysis(ctx.etpn().data_path);
        const int all = static_cast<int>(ctx.etpn().data_path.num_nodes() *
                                         ctx.etpn().data_path.num_nodes());
        const std::vector<testability::MergeCandidate> cands =
            testability::select_balance_candidates(g, b, ctx.etpn(), analysis,
                                                   all, {});
        if (cands.empty()) break;
        std::vector<core::ReschedOutcome> serial(cands.size());
        std::vector<core::ReschedOutcome> threaded(cands.size());
        for (std::size_t i = 0; i < cands.size(); ++i) {
          serial[i] = base_trial(g, ctx, s, strategy, cands[i]);
        }
        pool.parallel_for(cands.size(), [&](std::size_t i) {
          threaded[i] = base_trial(g, ctx, s, strategy, cands[i]);
        });
        std::vector<std::size_t> feasible_now;
        for (std::size_t i = 0; i < cands.size(); ++i) {
          etpn::Binding merged = b;
          cands[i].apply(g, merged);
          const core::ReschedOutcome ref =
              test_support::reference_reschedule(g, merged, s, strategy);
          ASSERT_EQ(serial[i].feasible, ref.feasible)
              << cands[i].description(g, b);
          ASSERT_EQ(threaded[i].feasible, ref.feasible);
          if (!ref.feasible) {
            ++infeasible;
            continue;
          }
          ++feasible;
          ASSERT_EQ(serial[i].schedule, ref.schedule)
              << cands[i].description(g, b);
          ASSERT_EQ(threaded[i].schedule, ref.schedule);
          feasible_now.push_back(i);
        }
        if (feasible_now.empty()) break;
        // Commit a random feasible merger; the next step's trials rebuild
        // their bases.
        const std::size_t pick =
            feasible_now[rng.next_below(feasible_now.size())];
        etpn::Binding next = b;
        cands[pick].apply(g, next);
        const etpn::Etpn e = etpn::build_etpn(g, serial[pick].schedule, next);
        ctx.commit(next, serial[pick].schedule,
                   cost::estimate_cost(e.data_path, lib, 8));
        b = std::move(next);
        s = serial[pick].schedule;
      }
    }
  }
  EXPECT_GT(feasible, 200);
  EXPECT_GT(infeasible, 200);
}

/// A random schedule of `g` respecting its data dependences (each op some
/// steps after its latest predecessor); with `break_deps`, one op is then
/// moved to step 1, which usually violates them.
sched::Schedule random_schedule(const dfg::Dfg& g, Rng& rng, bool break_deps) {
  sched::Schedule s(g.num_ops());
  for (dfg::OpId op : g.topo_order()) {
    int step = 1;
    for (dfg::OpId p : g.preds(op)) step = std::max(step, s.step(p) + 1);
    s.set_step(op, step + static_cast<int>(rng.next_below(3)));
  }
  if (break_deps && g.num_ops() > 0) {
    s.set_step(dfg::OpId{static_cast<std::uint32_t>(
                   rng.next_below(g.num_ops()))},
               1);
  }
  return s;
}

TEST(ReschedDifferential, SortedBindingCheckMatchesAllPairsCheck) {
  const std::vector<dfg::Dfg> designs = differential_designs();
  int holds = 0;
  int violated = 0;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const dfg::Dfg& g = designs[d];
    SCOPED_TRACE(g.name());
    Rng rng(9300 + d);
    for (int round = 0; round < 40; ++round) {
      etpn::Binding b =
          etpn::Binding::default_binding(g, etpn::ModuleCompat::ExactKind);
      const int merges = static_cast<int>(rng.next_below(12));
      for (int k = 0; k < merges; ++k) (void)merge_random_pair(g, b, rng);
      const sched::Schedule s = random_schedule(g, rng, round % 8 == 7);
      const bool ref =
          test_support::reference_schedule_respects_binding(g, b, s);
      ASSERT_EQ(core::schedule_respects_binding(g, b, s), ref)
          << "round " << round;
      (ref ? holds : violated)++;
    }
  }
  EXPECT_GT(holds, 50);
  EXPECT_GT(violated, 50);
}

}  // namespace
}  // namespace hlts
