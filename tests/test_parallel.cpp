// Tests for the thread pool and the serial-vs-parallel equivalence
// contract: integrated_synthesis and the fault simulator must produce
// bit-identical results for every thread count.  This executable carries
// the `tsan` CTest label so it can run under -fsanitize=thread
// (cmake -DHLTS_SANITIZE=thread, then `ctest -L tsan`).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "atpg/faults.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "core/synthesis.hpp"
#include "rtl/elaborate.hpp"
#include "rtl/rtl.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "workload/generator.hpp"

namespace hlts {
namespace {

TEST(ThreadPool, EmptyRangeReturnsImmediately) {
  util::ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> out(100, 0);
  pool.parallel_for(out.size(),
                    [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i);
}

TEST(ThreadPool, ManyMoreTasksThanThreads) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  const std::size_t n = 5000;
  std::vector<std::size_t> out(n, 0);
  std::atomic<std::size_t> calls{0};
  pool.parallel_for(n, [&](std::size_t i) {
    out[i] = i * i;
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  util::ThreadPool pool(3);
  std::size_t total = 0;
  for (int job = 0; job < 50; ++job) {
    std::vector<int> out(17, 0);
    pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = 1; });
    total += static_cast<std::size_t>(
        std::accumulate(out.begin(), out.end(), 0));
  }
  EXPECT_EQ(total, 50u * 17u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57) {
                                     throw std::runtime_error("task 57");
                                   }
                                 }),
               std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  // Every task throws; the caller must deterministically see index 0's
  // exception regardless of scheduling.
  util::ThreadPool pool(4);
  for (int rep = 0; rep < 20; ++rep) {
    try {
      pool.parallel_for(64, [](std::size_t i) {
        throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "0");
    }
  }
}

TEST(ThreadPool, AllIndicesAttemptedDespiteExceptions) {
  // A throwing task must not abort the job: every other index still runs,
  // so a parallel stage's side effects are complete when the exception
  // surfaces (the synthesis loop relies on this to stay exception-atomic).
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> ran(64);
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      ran[i].fetch_add(1, std::memory_order_relaxed);
      if (i % 7 == 3) throw std::runtime_error("injected");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, BadAllocPropagatesAndPoolSurvives) {
  util::ThreadPool pool(3);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_THROW(pool.parallel_for(8,
                                   [](std::size_t i) {
                                     if (i == 0) throw std::bad_alloc();
                                   }),
                 std::bad_alloc);
  }
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, NestedCallRunsInlineWithoutDeadlock) {
  util::ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) {
      inner_calls.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_calls.load(), 4 * 8);
}

TEST(ThreadPool, ParallelMapKeepsIndexOrder) {
  util::ThreadPool pool(4);
  std::vector<int> out = pool.parallel_map<int>(
      257, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(util::ThreadPool::default_threads(), 1u);
}

// --- serial-vs-parallel equivalence of Algorithm 1 -------------------------

using Trajectory = std::vector<core::IterationRecord>;

void expect_identical(const core::SynthesisResult& a,
                      const core::SynthesisResult& b) {
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.cost.total(), b.cost.total());  // bitwise: no tolerance
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    const core::IterationRecord& ra = a.trajectory[i];
    const core::IterationRecord& rb = b.trajectory[i];
    EXPECT_EQ(ra.description, rb.description) << "iteration " << i;
    EXPECT_EQ(ra.delta_e, rb.delta_e) << "iteration " << i;
    EXPECT_EQ(ra.delta_h, rb.delta_h) << "iteration " << i;
    EXPECT_EQ(ra.delta_c, rb.delta_c) << "iteration " << i;
    EXPECT_EQ(ra.exec_time, rb.exec_time) << "iteration " << i;
    EXPECT_EQ(ra.hw_cost, rb.hw_cost) << "iteration " << i;
  }
  EXPECT_EQ(a.schedule, b.schedule);
}

core::SynthesisResult run(const dfg::Dfg& g, int threads) {
  core::SynthesisParams p;
  p.bits = 8;
  p.k = 5;
  p.num_threads = threads;
  return core::integrated_synthesis(g, p);
}

TEST(ParallelSynthesis, EwfIdenticalAcrossThreadCounts) {
  dfg::Dfg g = benchmarks::make_ewf();
  core::SynthesisResult serial = run(g, 1);
  core::SynthesisResult parallel8 = run(g, 8);
  ASSERT_FALSE(serial.trajectory.empty());
  expect_identical(serial, parallel8);
}

TEST(ParallelSynthesis, DiffeqIdenticalAcrossThreadCounts) {
  dfg::Dfg g = benchmarks::make_diffeq();
  core::SynthesisResult serial = run(g, 1);
  core::SynthesisResult parallel3 = run(g, 3);
  core::SynthesisResult parallel8 = run(g, 8);
  ASSERT_FALSE(serial.trajectory.empty());
  expect_identical(serial, parallel3);
  expect_identical(serial, parallel8);
}

/// A traced run's result with its synth.trials_evaluated,
/// synth.trials_speculative and synth.trials_certified counters (0 when
/// absent).
struct TracedRun {
  core::SynthesisResult result;
  std::int64_t evaluated = 0;
  std::int64_t speculative = 0;
  std::int64_t certified = 0;
};

TracedRun traced_run(const dfg::Dfg& g, int threads) {
  util::Trace trace;
  TracedRun t;
  {
    const util::Trace::Scope scope(&trace);
    t.result = run(g, threads);
  }
  const auto counters = trace.snapshot().counters;
  const auto read = [&](const char* name) -> std::int64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  t.evaluated = read("synth.trials_evaluated");
  t.speculative = read("synth.trials_speculative");
  t.certified = read("synth.trials_certified");
  return t;
}

// With a pool, every wave is padded with later candidates in rank order.
// Selection still reads the first k feasible candidates, so the run must
// equal the serial one, and the padded trials selection never read must be
// exactly the surplus over the serial run's evaluations.  The serial runs
// must also prove some trials infeasible from the previous iteration's
// cycle certificates.
TEST(ParallelSynthesis, SpeculativeWavesMatchSerialRun) {
  std::vector<std::pair<std::string, dfg::Dfg>> designs;
  for (const char* name : {"ex", "diffeq", "ewf"}) {
    designs.emplace_back(name, benchmarks::make_benchmark(name));
  }
  workload::DfgShape plain;
  plain.ops = 30;
  plain.depth = 6;
  workload::DfgShape loopy = plain;
  loopy.loop_density = 0.3;
  loopy.self_loop_density = 0.5;
  workload::DfgShape memory = plain;
  memory.memories = 2;
  memory.memory_access_density = 0.2;
  designs.emplace_back("plain", workload::generate(11, plain));
  designs.emplace_back("loopy", workload::generate(12, loopy));
  designs.emplace_back("memory", workload::generate(13, memory));

  std::int64_t speculated = 0;
  std::int64_t certified = 0;
  for (const auto& [name, g] : designs) {
    SCOPED_TRACE(name);
    const TracedRun serial = traced_run(g, 1);
    ASSERT_FALSE(serial.result.trajectory.empty());
    EXPECT_EQ(serial.speculative, 0);
    certified += serial.certified;
    for (const int threads : {2, 3, 4, 8}) {
      SCOPED_TRACE(threads);
      const TracedRun parallel = traced_run(g, threads);
      expect_identical(serial.result, parallel.result);
      EXPECT_EQ(parallel.evaluated - parallel.speculative, serial.evaluated);
      speculated += parallel.speculative;
    }
  }
  EXPECT_GT(speculated, 0) << "no wave was ever padded";
  EXPECT_GT(certified, 0) << "no serial trial was certified";
}

TEST(ParallelSynthesis, ConnectivityPolicyIdenticalAcrossThreadCounts) {
  dfg::Dfg g = benchmarks::make_dct();
  core::SynthesisParams p;
  p.bits = 8;
  p.policy = core::SelectionPolicy::Connectivity;
  p.order = core::OrderStrategy::Plain;
  p.compat = etpn::ModuleCompat::AluClass;
  p.require_improvement = true;
  p.num_threads = 1;
  core::SynthesisResult serial = core::integrated_synthesis(g, p);
  p.num_threads = 6;
  core::SynthesisResult parallel6 = core::integrated_synthesis(g, p);
  expect_identical(serial, parallel6);
}

// --- serial-vs-parallel equivalence of the fault simulator -----------------

TEST(ParallelFaultSim, DetectedSetIdenticalAcrossThreadCounts) {
  // A real synthesized netlist with well over 63 collapsed faults, so the
  // parallel path actually spans several batches.
  dfg::Dfg g = benchmarks::make_diffeq();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = 4});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  rtl::Elaboration elab = rtl::elaborate(design);
  auto universe = atpg::FaultUniverse::collapsed(elab.netlist);
  std::vector<atpg::Fault> faults = universe.faults();
  ASSERT_GT(faults.size(), 126u) << "need at least 3 batches";

  const int period = design.steps() + 1;
  Rng rng(123);
  atpg::TestSequence seq;
  for (int c = 0; c < 3 * period; ++c) {
    atpg::TestVector v(elab.netlist.inputs().size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
    if (c == 0) v[0] = true;  // reset is input 0 by construction
    seq.push_back(v);
  }

  atpg::FaultSimulator serial(elab.netlist, 1);
  atpg::FaultSimulator parallel4(elab.netlist, 4);
  std::vector<std::size_t> expected = serial.detected_by(seq, faults);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(parallel4.detected_by(seq, faults), expected);

  // drop_detected must agree too (it erases by the same indices).
  std::vector<atpg::Fault> f1 = faults, f2 = faults;
  EXPECT_EQ(serial.drop_detected(seq, f1), parallel4.drop_detected(seq, f2));
  EXPECT_EQ(f1.size(), f2.size());
}

TEST(ParallelFaultSim, PartialBatchStopsEarlyWithSameResult) {
  // Regression for the partial-batch early-exit: fewer than 63 faults, all
  // detectable by the first vectors -- appending garbage vectors must not
  // change the detected set.
  dfg::Dfg g = benchmarks::make_ex();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = 4});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  rtl::Elaboration elab = rtl::elaborate(design);
  auto universe = atpg::FaultUniverse::collapsed(elab.netlist);
  std::vector<atpg::Fault> few(universe.faults().begin(),
                               universe.faults().begin() + 40);

  const int period = design.steps() + 1;
  Rng rng(9);
  atpg::TestSequence seq;
  for (int c = 0; c < 4 * period; ++c) {
    atpg::TestVector v(elab.netlist.inputs().size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
    if (c == 0) v[0] = true;
    seq.push_back(v);
  }
  atpg::FaultSimulator fsim(elab.netlist, 1);
  std::vector<std::size_t> base = fsim.detected_by(seq, few);

  atpg::TestSequence longer = seq;
  for (int c = 0; c < 200; ++c) {
    atpg::TestVector v(elab.netlist.inputs().size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
    longer.push_back(v);
  }
  // More vectors can only detect more; everything from the short sequence
  // stays detected, in the same ascending order.
  std::vector<std::size_t> more = fsim.detected_by(longer, few);
  EXPECT_TRUE(std::includes(more.begin(), more.end(), base.begin(), base.end()));
  EXPECT_TRUE(std::is_sorted(more.begin(), more.end()));
}

}  // namespace
}  // namespace hlts
