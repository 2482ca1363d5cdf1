// Tests of the incremental analysis layer (src/analysis + etpn/patch),
// ctest label `incremental`:
//
//  - etpn::apply_merge_patch / revert_merge_patch round-trip the data path
//    exactly (arcs, adjacency lists, aliveness, node fields);
//  - a merge-patched graph has, up to the tombstone id projection, the node
//    kinds and arcs of a fresh build_data_path of the merged binding;
//  - the state IncrementalContext::commit derives (data path, testability
//    fixpoint, balance index, cost) equals that of a context freshly
//    attached to the committed design, bit for bit;
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
//    random schedules, and the placement step on hand-made grids matches a
//    full scan;
//  - every commit's hardware cost, taken over from the winning trial,
//    equals a frozen estimate of the committed data path;
//  - the ranking streams drained to any depth, the dirty-node testability
//    fixpoint and the decrease-only register distances match their frozen
//    copies (full-sort rankings, round-robin fixpoint, BFS of the merged
//    graph), and a trial's SR2 keys read the updated distances;
//  - a memory-budget stop is read against the whole ranking and returns
//    the design of the run capped at that iteration;
//  - the control net of every committed and finalized design has the
//    schedule's length as its critical path (support/reference_petri.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
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
#include "sched/schedule.hpp"
#include "support/dfg_fixtures.hpp"
#include "support/reference_layers.hpp"
#include "support/reference_petri.hpp"
#include "support/reference_synthesis.hpp"
#include "testability/balance.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "util/strings.hpp"

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
    etpn::DpNode fields;
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
    s.nodes.push_back({node, dp.alive(n),
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
  d.e = etpn::build_data_path(g, d.s, d.b);
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
    etpn::revert_merge_patch(d.e.data_path, patch);
    EXPECT_EQ(dp_snapshot(d.e.data_path), before) << cand.description(g, d.b);
  }
}

/// Checks that the alive projection of `patched` equals the compact graph
/// `fresh`: same nodes in the same order (kind, and every field when
/// `fields_and_steps`), same arcs in the same order (mapped endpoints, port,
/// and steps when `fields_and_steps`).
void expect_alive_projection_equal(const etpn::DataPath& patched,
                                   const etpn::DataPath& fresh,
                                   bool fields_and_steps) {
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
    if (fields_and_steps) {
      EXPECT_EQ(pn, fn) << "node " << i;
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
    if (!fields_and_steps) continue;
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

    // A trial patch leaves steps stale (no trial consumer reads
    // them); the structure must match the fresh build.
    etpn::Etpn patched = d.e;
    const auto [into, from] = cand.nodes(patched);
    util::Arena arena;
    etpn::apply_merge_patch(patched.data_path, arena, into, from);

    etpn::Etpn fresh = etpn::build_data_path(g, r.schedule, merged);
    expect_alive_projection_equal(patched.data_path, fresh.data_path,
                                  /*fields_and_steps=*/false);
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
                                    /*fields_and_steps=*/true);
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
      // The context derives no control part; the committed design's one
      // has the schedule's length as its critical path.
      EXPECT_TRUE(test_support::control_matches_schedule(g, r.schedule));
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
    if (step % 2 == 1) premerged.emplace(etpn::build_data_path(g, s, merged));
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
/// scratch) against the frozen floorplanner; returns the frozen floorplan.
cost::Floorplan expect_floorplan_matches_frozen(const etpn::DataPath& dp,
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
  return ref;
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
    (void)dp.add_node(node);
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

/// The spiral radius the floorplanner gives `dp`: [-radius, radius]^2 holds
/// every alive node.
int spiral_radius(const etpn::DataPath& dp) {
  return static_cast<int>(std::ceil(
             std::sqrt(static_cast<double>(dp.num_alive_nodes())))) +
         2;
}

/// The nodes of `plan` (a floorplan of `dp`) that had one anchor -- one arc
/// to a node placed before them, in the floorplanner's order (connectivity
/// descending, ids ascending) -- and landed three or more grid steps from
/// it: the crowded case, where the search walks several lines.
int far_single_anchor_nodes(const etpn::DataPath& dp,
                            const cost::Floorplan& plan) {
  std::vector<std::vector<std::uint32_t>> neighbours(dp.num_nodes());
  for (etpn::DpArcId a : dp.arc_ids()) {
    if (!dp.alive(a)) continue;
    neighbours[dp.arc(a).from.index()].push_back(dp.arc(a).to.value());
    neighbours[dp.arc(a).to.index()].push_back(dp.arc(a).from.value());
  }
  std::vector<std::uint32_t> order;
  for (etpn::DpNodeId n : dp.node_ids()) {
    if (dp.alive(n)) order.push_back(n.value());
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return neighbours[a].size() > neighbours[b].size();
                   });
  std::vector<bool> placed(dp.num_nodes(), false);
  int far = 0;
  for (std::uint32_t idx : order) {
    std::vector<std::uint32_t> anchors;
    for (std::uint32_t nb : neighbours[idx]) {
      if (placed[nb]) anchors.push_back(nb);
    }
    if (anchors.size() == 1) {
      const auto [x, y] = plan.position[etpn::DpNodeId{idx}];
      const auto [ax, ay] = plan.position[etpn::DpNodeId{anchors[0]}];
      if (std::abs(x - ax) + std::abs(y - ay) >= 3) ++far;
    }
    placed[idx] = true;
  }
  return far;
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

/// Stars: `hubs` hubs in a chain, each with `leaves` leaves of one arc (one
/// anchor when placed, after their hub), a few leaves joined to a second
/// leaf, and a few arcs repeated.
etpn::DataPath hub_data_path(Rng& rng, int hubs, int leaves) {
  etpn::DataPath dp;
  etpn::DpNode node;
  node.kind = etpn::DpNodeKind::Register;
  for (int i = 0; i < hubs * (leaves + 1); ++i) (void)dp.add_node(node);
  auto id = [](int i) { return etpn::DpNodeId{static_cast<std::uint32_t>(i)}; };
  for (int h = 0; h + 1 < hubs; ++h) {
    (void)dp.add_transfer(id(h), id(h + 1), 0, 1);
  }
  for (int h = 0; h < hubs; ++h) {
    for (int l = 0; l < leaves; ++l) {
      const int leaf = hubs + h * leaves + l;
      (void)dp.add_transfer(id(h), id(leaf), 0, 1);
      if (rng.next_bool(0.1)) (void)dp.add_transfer(id(h), id(leaf), 1, 2);
      if (rng.next_bool(0.1)) {
        const int other =
            hubs + static_cast<int>(rng.next_below(hubs * leaves));
        (void)dp.add_transfer(id(leaf), id(other), 0, 1);
      }
    }
  }
  return dp;
}

TEST(FloorplanDifferential, CrowdedHubsMatchFrozenFloorplanner) {
  Rng rng(9300);
  cost::CostScratch scratch;
  int far = 0;
  for (int hubs = 1; hubs <= 6; ++hubs) {
    for (int leaves : {12, 24, 40}) {
      SCOPED_TRACE(std::to_string(hubs) + " hubs of " +
                   std::to_string(leaves) + " leaves");
      const etpn::DataPath dp = hub_data_path(rng, hubs, leaves);
      far += far_single_anchor_nodes(
          dp, expect_floorplan_matches_frozen(dp, scratch));
    }
  }
  // Single-anchor nodes three or more rings from their anchor.
  EXPECT_GT(far, 100);
}

TEST(FloorplanDifferential, LargeGridMatchesFrozenFloorplanner) {
  // Spiral radii 49, 50 and 51: from radius 50 on, the 0.01 pull toward the
  // origin can reach 1 and outweigh a grid step, so costs no longer order
  // like (distance, pull) pairs.
  Rng rng(9200);
  cost::CostScratch scratch;
  std::vector<int> radii;
  for (int n : {2200, 2300, 2400}) {
    SCOPED_TRACE("nodes " + std::to_string(n));
    const etpn::DataPath dp = random_data_path(rng, n, false);
    radii.push_back(spiral_radius(dp));
    expect_floorplan_matches_frozen(dp, scratch);
  }
  EXPECT_EQ(radii, (std::vector<int>{49, 50, 51}));
}

/// The frozen floorplanner's choice for one node, on a grid of `radius`
/// with the `taken` cells occupied: the first free cell in spiral order of
/// least cost, the cost summed arc by arc as reference_floorplan sums it.
std::pair<int, int> full_scan_cell(
    int radius, const std::set<std::pair<int, int>>& taken,
    const std::vector<std::pair<int, int>>& anchors) {
  std::pair<int, int> best{0, 0};
  double best_cost = 1e300;
  for (int r = 0; r <= radius; ++r) {
    for (int x = -r; x <= r; ++x) {
      for (int y = -r; y <= r; ++y) {
        if (std::max(std::abs(x), std::abs(y)) != r) continue;
        if (taken.count({x, y}) != 0) continue;
        double cost = 0;
        for (const auto& [ax, ay] : anchors) {
          cost += std::abs(x - ax) + std::abs(y - ay);
        }
        cost += 0.01 * (std::abs(x) + std::abs(y));
        if (cost < best_cost) {
          best_cost = cost;
          best = {x, y};
        }
      }
    }
  }
  return best;
}

// A full floorplan keeps its cells in a blob around the origin, far from
// the grid's edge; place_on_grid puts anchors on the edge, where the line
// walk runs out of lines and cells, and, at radius 50 or more, in corners
// where the pull of a candidate reaches 1.
TEST(FloorplanDifferential, EdgeAnchorsMatchFullScan) {
  Rng rng(9500);
  int edge_anchors = 0;
  int edge_cells = 0;
  int heavy_pull = 0;
  for (int radius : {3, 8, 49, 50, 51}) {
    for (int trial = 0; trial < 24; ++trial) {
      SCOPED_TRACE("radius " + std::to_string(radius) + " trial " +
                   std::to_string(trial));
      auto coordinate = [&] {
        return static_cast<int>(rng.next_below(2 * radius + 1)) - radius;
      };
      const int side = rng.next_bool() ? radius : -radius;
      std::pair<int, int> edge = {side, coordinate()};
      if (trial % 3 == 0) edge.second = rng.next_bool() ? radius : -radius;
      if (rng.next_bool()) std::swap(edge.first, edge.second);
      std::vector<std::pair<int, int>> anchors{edge};
      const int k = 1 + static_cast<int>(rng.next_below(4));
      for (int i = 1; i < k; ++i) {
        anchors.push_back(rng.next_bool()
                              ? edge
                              : std::pair{coordinate(), coordinate()});
      }
      // Anchors are placed nodes; crowd the grid around them.
      std::set<std::pair<int, int>> taken(anchors.begin(), anchors.end());
      const double density = 0.2 + 0.1 * static_cast<double>(trial % 8);
      for (int x = -radius; x <= radius; ++x) {
        for (int y = -radius; y <= radius; ++y) {
          const int near = std::abs(x - edge.first) + std::abs(y - edge.second);
          if (rng.next_bool(near <= 4 ? 0.9 : density)) taken.insert({x, y});
        }
      }
      taken.erase({0, 0});  // at least one free cell
      const std::vector<std::pair<int, int>> occupied(taken.begin(),
                                                      taken.end());
      const std::pair<int, int> ours =
          cost::place_on_grid(radius, occupied, anchors);
      EXPECT_EQ(ours, full_scan_cell(radius, taken, anchors));
      ++edge_anchors;
      if (std::max(std::abs(ours.first), std::abs(ours.second)) == radius) {
        ++edge_cells;
      }
      if (std::abs(ours.first) + std::abs(ours.second) >= 100) ++heavy_pull;
    }
  }
  EXPECT_EQ(edge_anchors, 5 * 24);
  // Winners on the edge, and winners whose pull is 1 or more.
  EXPECT_GT(edge_cells, 10);
  EXPECT_GT(heavy_pull, 3);
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
    const etpn::Etpn e = etpn::build_data_path(g, r.schedule, r.binding);
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
    const etpn::Etpn e = etpn::build_data_path(g, r.schedule, r.binding);
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
/// each commit), the binding merge and reschedule_merger over the committed
/// design's register distances, checking `certificate` first when set.
core::ReschedOutcome base_trial(
    const dfg::Dfg& g, analysis::IncrementalContext& ctx,
    const sched::Schedule& hint, core::OrderStrategy strategy,
    const testability::MergeCandidate& cand,
    const std::shared_ptr<const core::CycleCertificate>& certificate =
        nullptr) {
  std::unique_ptr<analysis::TrialWorkspace> ws = ctx.checkout();
  if (ws->resched_epoch != ctx.epoch()) {
    core::build_trial_base(g, ctx.tables(), ws->binding, hint, ws->resched);
    ws->resched_epoch = ctx.epoch();
  }
  core::ReschedOutcome r;
  {
    const analysis::BindingMerge merge(g, *ws, cand);
    r = core::reschedule_merger(
        g, ws->binding, hint, strategy,
        core::MergerDistances{ctx.etpn(), ctx.reach(), ws->d_in, ws->d_queue},
        cand, ws->resched, certificate);
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
      // Only the testability strategy reads register distances: a Plain
      // trial that did would fail on the unbuilt reach.
      analysis::IncrementalContext ctx(
          g, lib, 8, strategy == core::OrderStrategy::Testability);
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
        const etpn::Etpn e =
            etpn::build_data_path(g, serial[pick].schedule, next);
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

// ---------------------------------------------------------------------------
// The ranking stream, the dirty-node testability fixpoint and the
// decrease-only register distances against their frozen copies.
// ---------------------------------------------------------------------------

/// The six benchmarks and the three generated designs of
/// workload_shape_designs() (plain, loopy, memory-port).
std::vector<dfg::Dfg> stream_designs() {
  std::vector<dfg::Dfg> designs;
  for (const std::string& name : benchmarks::benchmark_names()) {
    designs.push_back(benchmarks::make_benchmark(name));
  }
  for (dfg::Dfg& g : workload_shape_designs()) designs.push_back(std::move(g));
  return designs;
}

/// The committed designs of the first `limit` iterations of `kind`'s
/// Algorithm-1 run on `g`, starting with the ASAP design.
std::vector<core::Checkpoint> run_states(const dfg::Dfg& g,
                                         core::FlowKind kind,
                                         int limit) {
  core::SynthesisParams p = core::synthesis_params(kind, {});
  std::vector<core::Checkpoint> states{
      {0, sched::asap(g), etpn::Binding::default_binding(g, p.compat)}};
  p.max_iterations = limit;
  p.checkpoint_every = 1;
  p.on_checkpoint = [&](const core::Checkpoint& c) { states.push_back(c); };
  (void)core::integrated_synthesis(g, p);
  return states;
}

void expect_same_ranking(
    const std::vector<testability::MergeCandidate>& ours,
    const std::vector<testability::MergeCandidate>& frozen) {
  ASSERT_EQ(ours.size(), frozen.size());
  for (std::size_t i = 0; i < ours.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    EXPECT_EQ(ours[i].kind, frozen[i].kind);
    EXPECT_EQ(ours[i].group_ids(), frozen[i].group_ids());
    EXPECT_TRUE(same_bits(ours[i].score, frozen[i].score));
    EXPECT_EQ(ours[i].creates_self_loop, frozen[i].creates_self_loop);
  }
}

TEST(StreamDifferential, DrainedStreamsMatchFrozenRankings) {
  int ranked = 0;
  int self_loop_regs = 0;  // register pairs whose merge self-loops
  int cross_kind = 0;      // module pairs of two kinds (AluClass)
  for (const dfg::Dfg& g : stream_designs()) {
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      SCOPED_TRACE(g.name() + " " + core::flow_name(kind));
      const testability::BalanceOptions options;
      const int to_convergence =
          core::synthesis_params(kind, {}).max_iterations;
      for (const core::Checkpoint& c : run_states(g, kind, to_convergence)) {
        SCOPED_TRACE("iteration " + std::to_string(c.iteration));
        const etpn::Etpn e = etpn::build_data_path(g, c.schedule, c.binding);
        const testability::TestabilityAnalysis analysis(e.data_path);
        const test_support::ReferenceTestability frozen(e.data_path);
        const int all =
            static_cast<int>(e.data_path.num_nodes() * e.data_path.num_nodes());
        // Partial pulls (the first few) and full drains.
        for (int k : {1, 3, 8, all}) {
          const std::vector<testability::MergeCandidate> ours =
              testability::select_balance_candidates(g, c.binding, e,
                                                     analysis, k, options);
          expect_same_ranking(
              ours, test_support::reference_select_balance_candidates(
                        g, c.binding, e, frozen, k, options));
          expect_same_ranking(
              core::select_connectivity_candidates(g, c.binding, e, k),
              test_support::reference_select_connectivity_candidates(
                  g, c.binding, e, k));
          if (k != all) continue;
          for (const testability::MergeCandidate& cand : ours) {
            if (!cand.is_modules()) {
              self_loop_regs += cand.creates_self_loop;
            } else if (c.binding.module_kind(g, cand.module_a) !=
                       c.binding.module_kind(g, cand.module_b)) {
              ++cross_kind;
            }
          }
        }
        ++ranked;
      }
    }
  }
  EXPECT_GT(ranked, 300);
  EXPECT_GT(self_loop_regs, 100);
  EXPECT_GT(cross_kind, 100);
}

// Closeness also counts an arc joining the two nodes of a pair, which no
// ETPN build emits between two registers or two modules; add some.
TEST(StreamDifferential, JoinedPairsMatchFrozenConnectivityRanking) {
  Rng rng(9700);
  int joined = 0;
  for (const dfg::Dfg& g : stream_designs()) {
    SCOPED_TRACE(g.name());
    Design d = make_design(g);
    const std::vector<etpn::RegId> regs = d.b.alive_regs();
    const std::vector<etpn::ModuleId> modules = d.b.alive_modules();
    for (int k = 0; k < 6; ++k) {
      const etpn::DpNodeId r1 = d.e.reg_node[regs[rng.next_below(regs.size())]];
      const etpn::DpNodeId r2 = d.e.reg_node[regs[rng.next_below(regs.size())]];
      const etpn::DpNodeId m1 =
          d.e.module_node[modules[rng.next_below(modules.size())]];
      const etpn::DpNodeId m2 =
          d.e.module_node[modules[rng.next_below(modules.size())]];
      (void)d.e.data_path.add_transfer(r1, r2, 0, 1);
      (void)d.e.data_path.add_transfer(m1, m2, 1, 1);
      joined += (r1 != r2) + (m1 != m2);
    }
    const int all = static_cast<int>(d.e.data_path.num_nodes() *
                                     d.e.data_path.num_nodes());
    expect_same_ranking(
        core::select_connectivity_candidates(g, d.b, d.e, all),
        test_support::reference_select_connectivity_candidates(g, d.b, d.e,
                                                               all));
  }
  EXPECT_GT(joined, 50);
}

/// Line measures, node measures and balance index of the production
/// fixpoint against the round-robin one, bit for bit.
void expect_fixpoint_matches_frozen(const etpn::DataPath& dp) {
  const testability::TestabilityAnalysis ours(dp);
  const test_support::ReferenceTestability frozen(dp);
  for (etpn::DpArcId a : dp.arc_ids()) {
    if (!dp.alive(a)) continue;
    const testability::Measure cc = ours.line_controllability(a);
    const testability::Measure co = ours.line_observability(a);
    const testability::Measure fcc = frozen.line_controllability(a);
    const testability::Measure fco = frozen.line_observability(a);
    EXPECT_TRUE(same_bits(cc.comb, fcc.comb)) << "CC arc " << a.value();
    EXPECT_TRUE(same_bits(cc.seq, fcc.seq)) << "SC arc " << a.value();
    EXPECT_TRUE(same_bits(co.comb, fco.comb)) << "CO arc " << a.value();
    EXPECT_TRUE(same_bits(co.seq, fco.seq)) << "SO arc " << a.value();
  }
  for (etpn::DpNodeId n : dp.node_ids()) {
    if (!dp.alive(n)) continue;
    const testability::Measure c = ours.node_controllability(n);
    const testability::Measure o = ours.node_observability(n);
    const testability::Measure fc = frozen.node_controllability(n);
    const testability::Measure fo = frozen.node_observability(n);
    EXPECT_TRUE(same_bits(c.comb, fc.comb) && same_bits(c.seq, fc.seq))
        << "C node " << n.value();
    EXPECT_TRUE(same_bits(o.comb, fo.comb) && same_bits(o.seq, fo.seq))
        << "O node " << n.value();
  }
  EXPECT_TRUE(same_bits(ours.balance_index(), frozen.balance_index()));
}

TEST(TestabilityDifferential, DirtyFixpointMatchesRoundRobin) {
  for (const dfg::Dfg& g : stream_designs()) {
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      SCOPED_TRACE(g.name() + " " + core::flow_name(kind));
      for (const core::Checkpoint& c : run_states(g, kind, 4)) {
        SCOPED_TRACE("iteration " + std::to_string(c.iteration));
        etpn::Etpn e = etpn::build_data_path(g, c.schedule, c.binding);
        expect_fixpoint_matches_frozen(e.data_path);
        // Merge-patched graphs: tombstones, and loops the merges close.
        util::Arena arena;
        int patched = 0;
        for (const testability::MergeCandidate& cand : all_candidates(g, {
                 c.schedule, c.binding, e})) {
          if (patched >= 4) break;
          const auto [into, from] = cand.nodes(e);
          if (!e.data_path.alive(into) || !e.data_path.alive(from)) continue;
          (void)etpn::apply_merge_patch(e.data_path, arena, into, from);
          ++patched;
          expect_fixpoint_matches_frozen(e.data_path);
        }
      }
    }
  }
  // Random graphs: every node kind, self-loops, cycles, tombstones.
  Rng rng(9500);
  for (int n = 1; n <= 160; n += 9) {
    SCOPED_TRACE("nodes " + std::to_string(n));
    expect_fixpoint_matches_frozen(random_data_path(rng, n, n % 2 == 0));
  }
  // Random graphs in which every alive register and module also reads its
  // own output on each port: an observability visit then writes lines
  // that are output lines of the node it visits.
  for (int n = 2; n <= 120; n += 7) {
    SCOPED_TRACE("self-arcs, nodes " + std::to_string(n));
    etpn::DataPath dp = random_data_path(rng, n, n % 3 == 0);
    for (etpn::DpNodeId v : dp.node_ids()) {
      const etpn::DpNodeKind kind = dp.node(v).kind;
      if (!dp.alive(v) || (kind != etpn::DpNodeKind::Register &&
                           kind != etpn::DpNodeKind::Module)) {
        continue;
      }
      for (int port = 0; port < dp.num_ports(v); ++port) {
        (void)dp.add_transfer(v, v, port, 1 + port);
      }
    }
    expect_fixpoint_matches_frozen(dp);
  }
  // A self-arc that changes the best out-line within a visit.  Module m
  // (a Not) lists m -> m before m -> l[0] among its out-lines and before
  // r -> m among its in-lines.  The comparison chain l[0..14] to the output
  // port leaves m -> l[0] an observability of 0.3^15, and m -> m's value,
  // 0.95 times that, ties with it within kEps: listed first, m -> m
  // becomes m's best out-line, and r -> m must read it.
  {
    etpn::DataPath dp;
    auto add = [&](etpn::DpNodeKind kind, dfg::OpKind op) {
      etpn::DpNode node;
      node.kind = kind;
      node.op_class = op;
      return dp.add_node(node);
    };
    const etpn::DpNodeId load = add(etpn::DpNodeKind::InPort, dfg::OpKind::Add);
    const etpn::DpNodeId r = add(etpn::DpNodeKind::Register, dfg::OpKind::Add);
    const etpn::DpNodeId m = add(etpn::DpNodeKind::Module, dfg::OpKind::Not);
    (void)dp.add_transfer(load, r, 0, 0);
    (void)dp.add_transfer(m, m, 0, 1);
    (void)dp.add_transfer(r, m, 0, 1);
    etpn::DpNodeId prev = m;
    for (int k = 0; k < 15; ++k) {
      const etpn::DpNodeId l =
          add(etpn::DpNodeKind::Module, dfg::OpKind::Less);
      const etpn::DpNodeId side =
          add(etpn::DpNodeKind::InPort, dfg::OpKind::Add);
      (void)dp.add_transfer(prev, l, 0, 2 + k);
      (void)dp.add_transfer(side, l, 1, 2 + k);
      prev = l;
    }
    const etpn::DpNodeId out = add(etpn::DpNodeKind::OutPort, dfg::OpKind::Add);
    (void)dp.add_transfer(prev, out, 0, 17);
    expect_fixpoint_matches_frozen(dp);
  }
}

// The committed design's data path, laid out in one counted pass, equals
// the frozen build (labels, per-transfer growth, compaction) field for
// field and span for span, and each node's derived label is the name the
// frozen build stored.  The full ETPN of every committed state has a
// control part whose critical path is the schedule's length.
TEST(BuildDifferential, CountedLayoutMatchesFrozenBuild) {
  int states = 0;
  for (const dfg::Dfg& g : stream_designs()) {
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      SCOPED_TRACE(g.name() + " " + core::flow_name(kind));
      for (const core::Checkpoint& c : run_states(g, kind, 6)) {
        SCOPED_TRACE("iteration " + std::to_string(c.iteration));
        ++states;
        const etpn::Etpn e = etpn::build_data_path(g, c.schedule, c.binding);
        const test_support::ReferenceDataPath ref =
            test_support::reference_build_data_path(g, c.schedule, c.binding);
        EXPECT_EQ(e.module_node, ref.module_node);
        EXPECT_EQ(e.reg_node, ref.reg_node);
        EXPECT_EQ(e.inport_node, ref.inport_node);
        EXPECT_EQ(e.outport_node, ref.outport_node);

        const etpn::DataPath& dp = e.data_path;
        ASSERT_EQ(dp.num_nodes(), ref.nodes.size());
        ASSERT_EQ(dp.num_arcs(), ref.arcs.size());
        EXPECT_EQ(dp.num_alive_nodes(), dp.num_nodes());
        EXPECT_EQ(dp.num_alive_arcs(), dp.num_arcs());
        EXPECT_EQ(dp.arc_pool_size(), ref.arc_pool.size());
        EXPECT_EQ(dp.step_pool_size(), ref.step_pool.size());
        auto same_list = [&](util::Span<etpn::DpArcId> list,
                             etpn::PoolSpan span) {
          return std::equal(list.begin(), list.end(),
                            ref.arc_pool.begin() + span.off,
                            ref.arc_pool.begin() + span.off + span.len);
        };
        for (etpn::DpNodeId n : dp.node_ids()) {
          const test_support::ReferenceDataPath::Node& rn = ref.nodes[n.index()];
          EXPECT_EQ(dp.node(n), rn.fields) << "node " << n.value();
          EXPECT_EQ(etpn::node_label(g, c.binding, dp.node(n)), rn.name);
          EXPECT_EQ(dp.in_list_span(n), ref.in_span[n.index()]);
          EXPECT_EQ(dp.out_list_span(n), ref.out_span[n.index()]);
          EXPECT_TRUE(same_list(dp.in_arcs(n), ref.in_span[n.index()]));
          EXPECT_TRUE(same_list(dp.out_arcs(n), ref.out_span[n.index()]));
        }
        for (etpn::DpArcId a : dp.arc_ids()) {
          const etpn::DpArc& arc = dp.arc(a);
          const etpn::DpArc& ra = ref.arcs[a.index()];
          EXPECT_EQ(arc.from, ra.from) << "arc " << a.value();
          EXPECT_EQ(arc.to, ra.to) << "arc " << a.value();
          EXPECT_EQ(arc.to_port, ra.to_port) << "arc " << a.value();
          const etpn::PoolSpan rs = ref.step_span[a.index()];
          EXPECT_EQ(dp.step_list_span(a), rs) << "arc " << a.value();
          const util::Span<int> steps = dp.steps(a);
          EXPECT_TRUE(std::equal(steps.begin(), steps.end(),
                                 ref.step_pool.begin() + rs.off,
                                 ref.step_pool.begin() + rs.off + rs.len))
              << "arc " << a.value();
        }
        EXPECT_TRUE(test_support::control_matches_schedule(g, c.schedule));
      }
    }
  }
  EXPECT_GT(states, 100);
}

// The paper takes the execution time from the critical path of the ETPN's
// control net; the library takes it from Schedule::length().  Every design
// a flow commits or finalizes must therefore have a control net whose
// reachability tree runs the L + 1 steps without deadlock and whose
// critical path is L (support/reference_petri.hpp), looped or not.
TEST(ControlOracle, CommittedAndFinalizedDesignsMatchScheduleLength) {
  int committed = 0;
  int finalized = 0;
  for (const dfg::Dfg& g : stream_designs()) {
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Approach1,
                      core::FlowKind::Approach2, core::FlowKind::Ours}) {
      SCOPED_TRACE(g.name() + " " + core::flow_name(kind));
      core::FlowParams params;
      params.checkpoint_every = 1;
      params.on_checkpoint = [&](const core::Checkpoint& c) {
        ++committed;
        EXPECT_TRUE(test_support::control_matches_schedule(g, c.schedule))
            << "iteration " << c.iteration;
      };
      const core::FlowResult r = core::run_flow(kind, g, params);
      ++finalized;
      EXPECT_EQ(r.exec_time, r.schedule.length());
      EXPECT_TRUE(test_support::control_matches_schedule(g, r.schedule));
    }
  }
  EXPECT_GT(committed, 100);
  EXPECT_EQ(finalized, 4 * 9);
}

TEST(RegisterDistances, DecreaseOnlyUpdateMatchesFrozenCopy) {
  std::vector<int> d;
  std::vector<std::uint32_t> queue;
  int module_mergers = 0;
  int register_mergers = 0;
  int lowered = 0;  // mergers that shortened some distance
  // `fresh` is the graph `reach` was built from and `merged` the graph with
  // `from` fused into `into`; checks the update against a frozen BFS of
  // `merged`.
  auto expect_update = [&](const etpn::DataPath& fresh,
                           const etpn::RegisterReach& reach,
                           etpn::DpNodeId into, etpn::DpNodeId from,
                           const etpn::DataPath& merged) {
    reach.merged_d_in(fresh, into, from, d, queue);
    EXPECT_EQ(d, test_support::reference_register_distances(merged).d_in)
        << "merging node " << from.value() << " into " << into.value();
    if (fresh.node(into).kind == etpn::DpNodeKind::Module) {
      ++module_mergers;
    } else {
      ++register_mergers;
    }
    if (d != reach.d_in()) ++lowered;
  };
  for (const dfg::Dfg& g : stream_designs()) {
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      SCOPED_TRACE(g.name() + " " + core::flow_name(kind));
      for (const core::Checkpoint& c : run_states(g, kind, 4)) {
        SCOPED_TRACE("iteration " + std::to_string(c.iteration));
        const etpn::Etpn e = etpn::build_data_path(g, c.schedule, c.binding);
        const etpn::RegisterReach reach(e.data_path);
        EXPECT_EQ(reach.d_in(),
                  test_support::reference_register_distances(e.data_path)
                      .d_in);
        int modules = 0;
        int registers = 0;
        for (const testability::MergeCandidate& cand :
             all_candidates(g, {c.schedule, c.binding, e})) {
          int& taken = cand.is_modules() ? modules : registers;
          if (taken >= 10) continue;
          ++taken;
          const auto [into, from] = cand.nodes(e);
          etpn::DataPath patched = e.data_path;
          util::Arena arena;
          (void)etpn::apply_merge_patch(patched, arena, into, from);
          expect_update(e.data_path, reach, into, from, patched);
        }
      }
    }
  }
  // Random graphs: hops through module chains, ports into modules,
  // tombstones; random same-kind pairs fused.  The merged graph is rebuilt
  // with `from`'s arcs moved to `into` (the merge patcher assumes ETPN
  // structure).
  auto fused = [](const etpn::DataPath& dp, etpn::DpNodeId into,
                  etpn::DpNodeId from) {
    etpn::DataPath out;
    for (etpn::DpNodeId n : dp.node_ids()) (void)out.add_node(dp.node(n));
    auto image = [&](etpn::DpNodeId n) { return n == from ? into : n; };
    for (etpn::DpArcId a : dp.arc_ids()) {
      if (!dp.alive(a)) continue;
      const etpn::DpArc& arc = dp.arc(a);
      (void)out.add_transfer(image(arc.from), image(arc.to), arc.to_port, 1);
    }
    for (etpn::DpNodeId n : dp.node_ids()) {
      if (!dp.alive(n) || n == from) out.set_alive(n, false);
    }
    return out;
  };
  Rng rng(9600);
  for (int n = 4; n <= 160; n += 6) {
    SCOPED_TRACE("nodes " + std::to_string(n));
    const etpn::DataPath dp = random_data_path(rng, n, n % 4 == 0);
    const etpn::RegisterReach reach(dp);
    for (int pair = 0; pair < 8; ++pair) {
      const etpn::DpNodeId a{static_cast<std::uint32_t>(rng.next_below(n))};
      const etpn::DpNodeId b{static_cast<std::uint32_t>(rng.next_below(n))};
      const etpn::DpNodeKind kind = dp.node(a).kind;
      if (a == b || !dp.alive(a) || !dp.alive(b) ||
          kind != dp.node(b).kind ||
          (kind != etpn::DpNodeKind::Module &&
           kind != etpn::DpNodeKind::Register)) {
        continue;
      }
      expect_update(dp, reach, a, b, fused(dp, a, b));
    }
  }
  EXPECT_GT(module_mergers, 200);
  EXPECT_GT(register_mergers, 200);
  EXPECT_GT(lowered, 50);
}

// A trial's SR2 keys read the merged design's distances: whenever the
// rescheduler derived them into the workspace buffer, they equal a frozen
// BFS of the merge-patched committed graph.
TEST(ReschedDifferential, MergerTrialsReadMergedDistances) {
  const cost::ModuleLibrary lib = cost::ModuleLibrary::standard();
  int derived = 0;
  int lowered = 0;  // derived distances that differ from the committed ones
  for (const dfg::Dfg& g : stream_designs()) {
    SCOPED_TRACE(g.name());
    for (const core::Checkpoint& c :
         run_states(g, core::FlowKind::Ours, 4)) {
      analysis::IncrementalContext ctx(g, lib, 8, /*register_reach=*/true);
      ctx.attach(c.schedule, c.binding);
      for (const testability::MergeCandidate& cand :
           all_candidates(g, {c.schedule, c.binding, ctx.etpn()})) {
        std::unique_ptr<analysis::TrialWorkspace> ws = ctx.checkout();
        if (ws->resched_epoch != ctx.epoch()) {
          core::build_trial_base(g, ctx.tables(), ws->binding, c.schedule,
                                 ws->resched);
          ws->resched_epoch = ctx.epoch();
        }
        ws->d_in.clear();
        {
          const analysis::BindingMerge merge(g, *ws, cand);
          (void)core::reschedule_merger(
              g, ws->binding, c.schedule, core::OrderStrategy::Testability,
              core::MergerDistances{ctx.etpn(), ctx.reach(), ws->d_in,
                                    ws->d_queue},
              cand, ws->resched);
        }
        if (!ws->d_in.empty()) {
          etpn::DataPath patched = ctx.etpn().data_path;
          util::Arena arena;
          const auto [into, from] = cand.nodes(ctx.etpn());
          (void)etpn::apply_merge_patch(patched, arena, into, from);
          EXPECT_EQ(ws->d_in,
                    test_support::reference_register_distances(patched).d_in)
              << cand.description(g, c.binding);
          ++derived;
          if (ws->d_in != ctx.reach().d_in()) ++lowered;
        }
        ctx.checkin(std::move(ws));
      }
    }
  }
  EXPECT_GT(derived, 500);
  EXPECT_GT(lowered, 100);
}

// ---------------------------------------------------------------------------
// Cycle certificates: a trial that stays cyclic under every swap leaves a
// certificate, which the same merger's trial checks first in the next
// iteration (core::CycleCertificate).
// ---------------------------------------------------------------------------

/// What a certificate replay saw.
struct CertificateStats {
  int proved = 0;        ///< checks that passed
  int multi_proved = 0;  ///< of those, two-component certificates
  int witness_gone = 0;
  int swap_unproved = 0;
  /// Checks rejected with C0 present, on trials a swap rescues.
  int rescued_unproved = 0;
};

/// Replays the committed states of `kind`'s run of `g`.  At each state
/// every candidate is tried in full, and again with the certificate its
/// merger left at the state before, if any: a rejected certificate must
/// give the full trial's outcome, a passing one an infeasible full trial.
/// Every new certificate must pass on the trial that recorded it.
void replay_certificates(const dfg::Dfg& g, core::FlowKind kind,
                         CertificateStats& stats) {
  const core::SynthesisParams p = core::synthesis_params(kind, {});
  using Key = std::tuple<bool, std::uint32_t, std::uint32_t>;
  std::map<Key, std::shared_ptr<const core::CycleCertificate>> previous;
  for (const core::Checkpoint& c : run_states(g, kind, p.max_iterations)) {
    SCOPED_TRACE("iteration " + std::to_string(c.iteration));
    analysis::IncrementalContext ctx(
        g, p.library, p.bits, p.order == core::OrderStrategy::Testability);
    ctx.attach(c.schedule, c.binding);
    std::map<Key, std::shared_ptr<const core::CycleCertificate>> next;
    for (const testability::MergeCandidate& cand :
         all_candidates(g, {c.schedule, c.binding, ctx.etpn()})) {
      SCOPED_TRACE(cand.description(g, c.binding));
      const auto [a, b] = cand.group_ids();
      const Key key{cand.is_modules(), a, b};
      const core::ReschedOutcome full =
          base_trial(g, ctx, c.schedule, p.order, cand);
      std::shared_ptr<const core::CycleCertificate> kept = full.certificate;
      if (full.certificate != nullptr) {
        EXPECT_FALSE(full.feasible);
        EXPECT_EQ(base_trial(g, ctx, c.schedule, p.order, cand,
                             full.certificate)
                      .check,
                  core::CertificateCheck::Proved);
      }
      const auto it = previous.find(key);
      if (it != previous.end()) {
        const core::ReschedOutcome checked =
            base_trial(g, ctx, c.schedule, p.order, cand, it->second);
        if (checked.check == core::CertificateCheck::Proved) {
          EXPECT_FALSE(full.feasible);
          EXPECT_NE(full.cycles, core::CycleVerdict::Acyclic);
          EXPECT_EQ(checked.cycles, core::CycleVerdict::Certified);
          ++stats.proved;
          if (it->second->multi) ++stats.multi_proved;
          kept = it->second;
        } else {
          EXPECT_EQ(checked.feasible, full.feasible);
          EXPECT_EQ(checked.schedule, full.schedule);
          EXPECT_EQ(checked.cycles, full.cycles);
          if (checked.check == core::CertificateCheck::WitnessGone) {
            ++stats.witness_gone;
          } else {
            ++stats.swap_unproved;
            if (full.cycles == core::CycleVerdict::Rescued) {
              ++stats.rescued_unproved;
            }
          }
        }
      }
      if (kept != nullptr) next[key] = kept;
    }
    previous = std::move(next);
  }
}

TEST(CycleCertificate, PaperDesignsPassingChecksAreInfeasible) {
  CertificateStats stats;
  for (const std::string& name : benchmarks::benchmark_names()) {
    SCOPED_TRACE(name);
    const dfg::Dfg g = benchmarks::make_benchmark(name);
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      SCOPED_TRACE(core::flow_name(kind));
      replay_certificates(g, kind, stats);
    }
  }
  EXPECT_GT(stats.proved, 0);
  EXPECT_GT(stats.multi_proved, 0);
}

TEST(CycleCertificate, WorkloadShapesPassingChecksAreInfeasible) {
  for (const dfg::Dfg& g : workload_shape_designs()) {
    SCOPED_TRACE(g.name());
    CertificateStats stats;
    for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      SCOPED_TRACE(core::flow_name(kind));
      replay_certificates(g, kind, stats);
    }
    EXPECT_GT(stats.proved, 0) << "no certificate passed";
    EXPECT_GT(stats.witness_gone + stats.swap_unproved, 0)
        << "no certificate was rejected";
  }
}

// A certificate must confirm every cycle it names in the graph at hand:
// forged ones -- a cycle that is not there, or two "component" cycles that
// share their links -- are rejected on the very trial whose own
// certificate passes.
TEST(CycleCertificate, RejectsForgedCertificates) {
  using Certificate = core::CycleCertificate;
  // Makes the first arc of cycle k one no graph has.
  auto drop_arc = [](Certificate& f, std::size_t k) {
    f.arcs[k == 0 ? 0 : f.ends[k - 1]].kind =
        sched::ConstraintGraph::ArcKind::None;
  };
  int forged[4] = {0, 0, 0, 0};
  for (const dfg::Dfg& g : workload_shape_designs()) {
    SCOPED_TRACE(g.name());
    const core::SynthesisParams p =
        core::synthesis_params(core::FlowKind::Ours, {});
    for (const core::Checkpoint& c : run_states(g, core::FlowKind::Ours, 4)) {
      analysis::IncrementalContext ctx(g, p.library, p.bits, true);
      ctx.attach(c.schedule, c.binding);
      for (const testability::MergeCandidate& cand :
           all_candidates(g, {c.schedule, c.binding, ctx.etpn()})) {
        SCOPED_TRACE(cand.description(g, c.binding));
        const core::ReschedOutcome full =
            base_trial(g, ctx, c.schedule, p.order, cand);
        if (full.certificate == nullptr) continue;
        const Certificate& real = *full.certificate;
        auto check = [&](const Certificate& forgery) {
          return base_trial(g, ctx, c.schedule, p.order, cand,
                            std::make_shared<const Certificate>(forgery))
              .check;
        };
        // C0 (or the first component's cycle) not in the graph.
        Certificate f = real;
        drop_arc(f, 0);
        EXPECT_EQ(check(f), core::CertificateCheck::WitnessGone);
        ++forged[0];
        if (real.multi) {
          // The second component's cycle not in the graph.
          f = real;
          drop_arc(f, 1);
          EXPECT_EQ(check(f), core::CertificateCheck::WitnessGone);
          ++forged[1];
          continue;
        }
        // C0 passed off as two components' cycles.
        f.clear();
        f.multi = true;
        f.add(real.cycle(0));
        f.add(real.cycle(0));
        EXPECT_EQ(check(f), core::CertificateCheck::WitnessGone);
        ++forged[2];
        // A swapped graph's cycle that is not there.
        const auto swapped = std::find_if(real.swapped.begin(),
                                          real.swapped.end(),
                                          [](std::uint32_t k) { return k; });
        if (swapped == real.swapped.end()) continue;
        f = real;
        drop_arc(f, *swapped);
        EXPECT_EQ(check(f), core::CertificateCheck::SwapUnproved);
        ++forged[3];
      }
    }
  }
  for (int n : forged) EXPECT_GT(n, 0);
}

// A certificate whose witness C0 is still there but one of whose witness
// swaps now rescues the trial must be rejected.  Such trials are rare (2
// of 108 generated designs of 24-44 ops scanned, both flows), so the test
// pins a memory-shaped design that has one.
TEST(CycleCertificate, RejectsWhenAWitnessSwapRescues) {
  workload::DfgShape memory;
  memory.ops = 32;
  memory.depth = 6;
  memory.memories = 2;
  memory.memory_access_density = 0.2;
  const dfg::Dfg g = workload::generate(10, memory);
  CertificateStats stats;
  for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
    SCOPED_TRACE(core::flow_name(kind));
    replay_certificates(g, kind, stats);
  }
  EXPECT_GT(stats.proved, 0);
  EXPECT_GT(stats.rescued_unproved, 0);
}

// ---------------------------------------------------------------------------
// The memory budget stop.
// ---------------------------------------------------------------------------

/// The design a run ends with, serialized: equal strings mean
/// bit-identical designs.
std::string dump_design(const core::SynthesisResult& r) {
  return util::json_dump(
      core::checkpoint_to_json({r.iterations, r.schedule, r.binding}));
}

/// Runs Algorithm 1 from `from` (the ASAP design when it is iteration 0)
/// under `budget` bytes and at most `max_iterations` iterations.
core::SynthesisResult run_with_budget(const dfg::Dfg& g,
                                      core::SynthesisParams p,
                                      const core::Checkpoint& from,
                                      std::size_t budget, int max_iterations) {
  p.memory_budget_bytes = budget;
  p.max_iterations = max_iterations;
  if (from.iteration > 0) p.resume_from = &from;
  return core::integrated_synthesis(g, p);
}

TEST(MemoryBudget, StopIsTheIterationCappedDesign) {
  const dfg::Dfg g = benchmarks::make_benchmark("diffeq");
  const core::SynthesisParams p =
      core::synthesis_params(core::FlowKind::Ours, {});
  const core::FlowParams defaults;
  const std::vector<core::Checkpoint> states =
      run_states(g, core::FlowKind::Ours, defaults.max_iterations);
  ASSERT_GE(states.size(), 4u);
  std::uint64_t per_candidate = 0;
  for (const std::size_t i : {std::size_t{0}, states.size() / 2,
                              states.size() - 2}) {
    const core::Checkpoint& state = states[i];
    const int at = state.iteration;
    SCOPED_TRACE("iteration " + std::to_string(at));
    // The largest budget that stops the run at this iteration.
    std::uint64_t lo = 0;        // stops
    std::uint64_t hi = 1ull << 40;  // runs the iteration
    ASSERT_EQ(run_with_budget(g, p, state, hi, at + 1).iterations, at + 1);
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      const core::SynthesisResult r = run_with_budget(g, p, state, mid, at + 1);
      (r.stop_reason == "memory_budget" ? lo : hi) = mid;
    }
    // The budget is read against the whole ranking: every feasible pair.
    const etpn::Etpn e =
        etpn::build_data_path(g, state.schedule, state.binding);
    const std::size_t ranked =
        test_support::reference_select_balance_candidates(
            g, state.binding, e,
            test_support::ReferenceTestability(e.data_path),
            static_cast<int>(e.data_path.num_nodes() *
                             e.data_path.num_nodes()),
            p.balance)
            .size();
    ASSERT_GT(ranked, 1u);
    EXPECT_EQ(hi % ranked, 0u) << "stop threshold " << hi << " for " << ranked;
    if (per_candidate == 0) per_candidate = hi / ranked;
    EXPECT_EQ(hi, per_candidate * ranked);

    const core::SynthesisResult stopped =
        run_with_budget(g, p, state, lo, p.max_iterations);
    EXPECT_EQ(stopped.completeness, core::Completeness::Partial);
    EXPECT_EQ(stopped.stop_reason, "memory_budget");
    EXPECT_EQ(stopped.iterations, at);
    core::SynthesisParams capped = p;
    capped.max_iterations = at;
    const core::SynthesisResult reference =
        core::integrated_synthesis(g, capped);
    EXPECT_EQ(dump_design(stopped), dump_design(reference));
  }
}

// A 200-op generated design: more nodes, pairs and conflict points than
// any other replay; capped to keep the label fast.
constexpr int kTwoHundredOpIterations = 8;

TEST(IncrementalRandomDesigns, TwoHundredOpReplayAgainstReference) {
  workload::DfgShape shape;
  shape.ops = 200;
  shape.depth = 8;
  shape.loop_density = 0.1;
  shape.self_loop_density = 0.5;
  const dfg::Dfg g = workload::generate(42, shape);
  for (auto kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
    SCOPED_TRACE(core::flow_name(kind));
    core::SynthesisParams p = core::synthesis_params(kind, {});
    p.max_iterations = kTwoHundredOpIterations;
    const core::SynthesisResult r = replay_against_reference(g, p);
    EXPECT_EQ(r.iterations, p.max_iterations);
  }
}

}  // namespace
}  // namespace hlts
