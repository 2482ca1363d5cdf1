// Workload-generator tests (`ctest -L workload`): the seeded random-DFG
// generator is bit-deterministic per (seed, shape) -- token-compared across
// repeated generation and across synthesis thread counts -- its shape knobs
// verifiably steer the graph (depth chain, loop states, memory-port
// serialization), its designs pass FlowParams::audit under all four flows,
// and the acceptance-scale checks: a >= 2000-op seeded design synthesizes
// under every flow, and Ours runs uncapped to convergence on a 72-op
// loop-and-memory design, bit-identically at 1 and 4 threads.  Plus the traffic-pattern schedule: exact apportionment,
// determinism, and the shape of each pattern.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/flows.hpp"
#include "core/synthesis.hpp"
#include "dfg/dfg.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"
#include "workload/traffic.hpp"
#include "util/strings.hpp"

namespace hlts {
namespace {

workload::DfgShape rich_shape(int ops) {
  workload::DfgShape s;
  s.ops = ops;
  s.depth = 10;
  s.fanout = 3;
  s.inputs = 8;
  s.loop_density = 0.1;
  s.self_loop_density = 0.5;
  s.mul_fraction = 0.25;
  s.cmp_fraction = 0.05;
  s.logic_fraction = 0.10;
  s.memories = 2;
  s.memory_ports = 2;
  s.memory_access_density = 0.2;
  return s;
}

// ---------------------------------------------------------------------------
// Determinism.

TEST(WorkloadGenerator, SameSeedAndShapeIsBitIdentical) {
  const workload::DfgShape shape = rich_shape(120);
  const std::string a = workload::tokens(workload::generate(42, shape));
  const std::string b = workload::tokens(workload::generate(42, shape));
  EXPECT_EQ(a, b);
  // And across a fresh Dfg build in a different order of calls: generation
  // is a pure function of (seed, shape), nothing ambient leaks in.
  (void)workload::generate(7, rich_shape(40));
  EXPECT_EQ(workload::tokens(workload::generate(42, shape)), a);
}

TEST(WorkloadGenerator, DifferentSeedsAndShapesDiffer) {
  const workload::DfgShape shape = rich_shape(120);
  const std::string base = workload::tokens(workload::generate(1, shape));
  EXPECT_NE(workload::tokens(workload::generate(2, shape)), base);
  workload::DfgShape wider = shape;
  wider.fanout = 1;
  EXPECT_NE(workload::tokens(workload::generate(1, wider)), base);
}

TEST(WorkloadGenerator, SynthesisOfGeneratedDesignIsThreadCountInvariant) {
  const dfg::Dfg g = workload::generate(11, rich_shape(80));
  core::FlowParams serial;
  serial.num_threads = 1;
  serial.max_iterations = 3;  // the equivalence shows up in the first trials
  core::FlowParams parallel = serial;
  parallel.num_threads = 4;
  for (core::FlowKind kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
    const api::FlowResultV1 a = api::FlowResultV1::from_result(
        "t", core::run_flow(kind, g, serial));
    const api::FlowResultV1 b = api::FlowResultV1::from_result(
        "t", core::run_flow(kind, g, parallel));
    EXPECT_TRUE(a.design_identical(b)) << core::flow_name(kind);
  }
}

// ---------------------------------------------------------------------------
// Shape knobs.

TEST(WorkloadGenerator, DepthKnobDrivesTheCriticalPath) {
  for (int depth : {5, 20, 50}) {
    workload::DfgShape s;
    s.ops = 200;
    s.depth = depth;
    s.fanout = 2;
    s.inputs = 6;
    const dfg::Dfg g = workload::generate(3, s);
    EXPECT_EQ(g.num_ops(), 200);
    // The chain threads every populated layer, so the critical path tracks
    // the depth knob exactly (no states/memory to lengthen it here).
    EXPECT_EQ(g.critical_path_ops(), depth) << "depth=" << depth;
  }
}

TEST(WorkloadGenerator, LoopDensityCreatesRegisteredStateOutputs) {
  workload::DfgShape s;
  s.ops = 100;
  s.depth = 8;
  s.inputs = 4;
  s.loop_density = 0.2;       // 20 loop states
  s.self_loop_density = 0.5;  // 10 of them read their own state input
  const dfg::Dfg g = workload::generate(5, s);
  int registered = 0;
  for (const dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    if (var.is_primary_output && var.po_registered) ++registered;
  }
  EXPECT_EQ(registered, 20);
  // The self-loop states close directly: update op k reads state input sK.
  for (int k = 0; k < 10; ++k) {
    const auto op = g.find_op(hlts::cat("u", std::to_string(k)));
    ASSERT_TRUE(op.has_value()) << k;
    const dfg::Variable& in0 = g.var(g.op(*op).inputs[0]);
    EXPECT_EQ(in0.name, hlts::cat("s", std::to_string(k)));
    EXPECT_TRUE(in0.is_primary_input);
  }
}

TEST(WorkloadGenerator, MemoryPortTokensSerializeEveryAccess) {
  workload::DfgShape s;
  s.ops = 64;
  s.depth = 1;  // no layer chaining: any depth must come from the port
  s.inputs = 4;
  s.memories = 1;
  s.memory_ports = 1;
  s.memory_access_density = 1.0;  // every op is an access on the one port
  const dfg::Dfg g = workload::generate(9, s);
  // One port means one token chain through all 64 accesses: the critical
  // path is the whole op count even though the layer structure is flat.
  EXPECT_EQ(g.critical_path_ops(), 64);
  // Two ports halve the chain (roughly): the accesses split across two
  // independently threaded tokens.
  s.memory_ports = 2;
  const dfg::Dfg g2 = workload::generate(9, s);
  EXPECT_LT(g2.critical_path_ops(), 64);
  EXPECT_GT(g2.critical_path_ops(), 16);
}

TEST(WorkloadGenerator, RejectsMalformedShapes) {
  workload::DfgShape s;
  s.ops = 0;
  EXPECT_THROW((void)workload::generate(1, s), Error);
  s = workload::DfgShape{};
  s.loop_density = 1.5;
  EXPECT_THROW((void)workload::generate(1, s), Error);
  s = workload::DfgShape{};
  s.mul_fraction = 0.6;
  s.div_fraction = 0.6;  // mix sums past 1
  EXPECT_THROW((void)workload::generate(1, s), Error);
  s = workload::DfgShape{};
  s.memories = 1;
  s.memory_ports = 0;
  EXPECT_THROW((void)workload::generate(1, s), Error);
}

// ---------------------------------------------------------------------------
// Generated designs synthesize, with invariants audited.

TEST(WorkloadGenerator, GeneratedDesignsAuditUnderAllFourFlows) {
  const dfg::Dfg g = workload::generate(21, rich_shape(120));
  core::FlowParams p;
  p.num_threads = 2;
  p.max_iterations = 3;
  p.audit = true;  // audit_design + audit_etpn throw on any inconsistency
  for (core::FlowKind kind :
       {core::FlowKind::Camad, core::FlowKind::Approach1,
        core::FlowKind::Approach2, core::FlowKind::Ours}) {
    const core::FlowResult r = core::run_flow(kind, g, p);
    EXPECT_GE(r.exec_time, g.critical_path_ops()) << core::flow_name(kind);
    EXPECT_GT(r.registers, 0) << core::flow_name(kind);
    EXPECT_GT(r.modules, 0) << core::flow_name(kind);
  }
}

TEST(WorkloadGenerator, TwoThousandOpDesignSynthesizesUnderAllFourFlows) {
  // The acceptance-scale check.  Shallow-ish depth keeps the FDS mobility
  // windows (and so Approach 1's runtime) bounded; the iteration budget
  // bounds the Algorithm-1 flows, which legitimately report "partial".
  workload::DfgShape s;
  s.ops = 2000;
  s.depth = 40;
  s.fanout = 2;
  s.inputs = 12;
  s.loop_density = 0.02;
  s.self_loop_density = 0.5;
  s.memories = 2;
  s.memory_ports = 2;
  s.memory_access_density = 0.05;
  const dfg::Dfg g = workload::generate(7, s);
  ASSERT_EQ(g.num_ops(), 2000);
  core::FlowParams p;
  p.num_threads = 4;
  p.max_iterations = 2;
  p.audit = true;
  for (core::FlowKind kind :
       {core::FlowKind::Approach1, core::FlowKind::Approach2,
        core::FlowKind::Camad, core::FlowKind::Ours}) {
    const core::FlowResult r = core::run_flow(kind, g, p);
    EXPECT_GE(r.exec_time, g.critical_path_ops()) << core::flow_name(kind);
    EXPECT_GT(r.registers, 0) << core::flow_name(kind);
  }
}

TEST(WorkloadGenerator, OursConvergesUncappedOnLoopyMemoryDesign) {
  // Algorithm 1 at scale with no iteration cap: a loop-carried, memory-port
  // design of 72 ops must run to convergence, with the same trajectory --
  // every committed merger and its bitwise numbers -- at 1 and 4 threads.
  workload::DfgShape s;
  s.ops = 72;
  s.depth = 8;
  s.loop_density = 0.2;
  s.self_loop_density = 0.5;
  s.memories = 2;
  s.memory_ports = 1;
  s.memory_access_density = 0.15;
  const dfg::Dfg g = workload::generate(3, s);
  core::FlowParams p;
  p.bits = 8;
  p.max_iterations = std::numeric_limits<int>::max();
  std::string serial;
  for (const int threads : {1, 4}) {
    p.num_threads = threads;
    const core::SynthesisResult r = core::integrated_synthesis(
        g, core::synthesis_params(core::FlowKind::Ours, p));
    EXPECT_EQ(r.stop_reason, "converged") << "threads=" << threads;
    EXPECT_GT(r.iterations, 20) << "threads=" << threads;
    std::ostringstream os;
    os.precision(17);
    for (const core::IterationRecord& rec : r.trajectory) {
      os << rec.description << ';' << rec.exec_time << ';' << rec.hw_cost
         << ';' << rec.delta_e << ';' << rec.delta_h << ';' << rec.delta_c
         << ';' << rec.balance_index << '|';
    }
    os << r.exec_time << ';' << r.cost.total();
    if (threads == 1) {
      serial = os.str();
    } else {
      EXPECT_EQ(os.str(), serial) << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Traffic patterns.

TEST(Traffic, TokensRoundTripAndUnknownTokensThrow) {
  for (workload::Pattern p : workload::all_patterns()) {
    EXPECT_EQ(workload::pattern_from_token(workload::pattern_name(p)), p);
  }
  EXPECT_THROW((void)workload::pattern_from_token("zipfian"), Error);
}

TEST(Traffic, ApportionSumsExactlyAndIsDeterministic) {
  for (workload::Pattern p : workload::all_patterns()) {
    for (int jobs : {1, 7, 24, 100}) {
      for (int phase = 0; phase < 4; ++phase) {
        const std::vector<int> a = workload::apportion(p, 6, 4, phase, jobs);
        ASSERT_EQ(a.size(), 6u);
        int sum = 0;
        for (const int v : a) {
          EXPECT_GE(v, 0);
          sum += v;
        }
        EXPECT_EQ(sum, jobs) << workload::pattern_name(p) << " phase " << phase;
        EXPECT_EQ(workload::apportion(p, 6, 4, phase, jobs), a);
      }
    }
  }
}

TEST(Traffic, UniformSpreadsEvenly) {
  const std::vector<int> a =
      workload::apportion(workload::Pattern::Uniform, 4, 2, 0, 8);
  EXPECT_EQ(a, (std::vector<int>{2, 2, 2, 2}));
}

TEST(Traffic, DiagonalConcentratesOnTheDiagonalConnections) {
  // 4 conns x 4 phases: phase k belongs to connection k alone.
  for (int phase = 0; phase < 4; ++phase) {
    const std::vector<int> a =
        workload::apportion(workload::Pattern::Diagonal, 4, 4, phase, 12);
    for (int conn = 0; conn < 4; ++conn) {
      const double w =
          workload::pattern_weight(workload::Pattern::Diagonal, 4, 4, conn, phase);
      if (a[static_cast<std::size_t>(conn)] == 12) {
        EXPECT_GT(w, 0.0);
      } else {
        EXPECT_EQ(a[static_cast<std::size_t>(conn)], 0);
        EXPECT_EQ(w, 0.0);
      }
    }
  }
}

TEST(Traffic, LogDiagonalDecaysWithDistanceButNeverSilences) {
  const int conns = 8;
  const int phases = 8;
  const int phase = 0;
  double prev = -1.0;
  for (int d = 0; d < conns / 2; ++d) {
    const double w = workload::pattern_weight(workload::Pattern::LogDiagonal,
                                              conns, phases, d, phase);
    EXPECT_GT(w, 0.0) << d;
    if (prev >= 0.0) {
      EXPECT_LT(w, prev) << d;
    }
    prev = w;
  }
}

TEST(Traffic, QuasiDiagonalHasShouldersAndSilence) {
  const int conns = 8;
  std::set<double> seen;
  for (int conn = 0; conn < conns; ++conn) {
    seen.insert(workload::pattern_weight(workload::Pattern::QuasiDiagonal,
                                         conns, conns, conn, 0));
  }
  // Full weight on the diagonal, half on the shoulders, zero elsewhere.
  EXPECT_EQ(seen, (std::set<double>{0.0, 0.5, 1.0}));
}

}  // namespace
}  // namespace hlts
