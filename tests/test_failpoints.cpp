// Fault-injection tests: the util/failpoint framework itself, the anytime
// degradation contract of the synthesis loop (a Partial result at iteration
// k is bit-identical to a run capped at k), the engine's Transient-retry and
// watchdog paths, and the core/validate invariant auditor.
//
// Failpoint configuration is process-global, so every test disarms in its
// epilogue; ctest additionally runs each test in its own process (the
// binary is invoked per test via gtest_discover_tests), which keeps the
// global state from leaking between tests even on a crash.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "core/synthesis.hpp"
#include "core/validate.hpp"
#include "engine/engine.hpp"
#include "sched/lifetime.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace hlts {
namespace {

namespace fp = util::failpoint;

/// Disarms failpoints on scope exit, so a failing assertion cannot leave
/// the process armed for the rest of the test body.
struct FailpointGuard {
  ~FailpointGuard() { fp::clear(); }
};

core::SynthesisParams serial_params() {
  core::SynthesisParams p;
  p.num_threads = 1;
  return p;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const core::SynthesisResult& expected,
                      const core::SynthesisResult& actual) {
  EXPECT_EQ(expected.exec_time, actual.exec_time);
  EXPECT_TRUE(expected.schedule == actual.schedule);
  EXPECT_TRUE(bits_equal(expected.cost.total(), actual.cost.total()));
  EXPECT_EQ(expected.trajectory.size(), actual.trajectory.size());
  EXPECT_EQ(expected.binding.num_alive_modules(),
            actual.binding.num_alive_modules());
  EXPECT_EQ(expected.binding.num_alive_regs(), actual.binding.num_alive_regs());
}

TEST(Failpoints, DisabledByDefaultAndZeroStats) {
  fp::clear();
  EXPECT_FALSE(fp::armed());
  EXPECT_TRUE(fp::active().empty());
  EXPECT_TRUE(fp::stats().empty());
}

TEST(Failpoints, ConfigureParsesAndRejects) {
  FailpointGuard guard;
  std::string error;

  ASSERT_TRUE(fp::configure(
      "sched.reschedule:error:0.25:42,engine.worker:delay:1:0:20", &error))
      << error;
  EXPECT_TRUE(fp::armed());
  std::vector<fp::Spec> specs = fp::active();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].site, "sched.reschedule");
  EXPECT_EQ(specs[0].mode, fp::Mode::Error);
  EXPECT_DOUBLE_EQ(specs[0].probability, 0.25);
  EXPECT_EQ(specs[0].seed, 42u);
  EXPECT_EQ(specs[1].mode, fp::Mode::Delay);
  EXPECT_EQ(specs[1].param, 20);

  // Unknown site, unknown mode, and out-of-range probability all fail fast
  // and leave the previous configuration in place.
  EXPECT_FALSE(fp::configure("no.such.site:error:1:0", &error));
  EXPECT_NE(error.find("no.such.site"), std::string::npos);
  EXPECT_FALSE(fp::configure("sched.reschedule:explode:1:0", &error));
  EXPECT_FALSE(fp::configure("sched.reschedule:error:1.5:0", &error));
  EXPECT_EQ(fp::active().size(), 2u);

  fp::clear();
  EXPECT_FALSE(fp::armed());
}

TEST(Failpoints, KnownSitesCoverThePipeline) {
  const std::vector<std::string>& sites = fp::known_sites();
  for (const char* expected :
       {"frontend.parse", "sched.reschedule", "alloc.merge", "atpg.fault_sim",
        "engine.worker", "pool.task"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << expected;
  }
}

TEST(Failpoints, TriggerStreamIsDeterministic) {
  FailpointGuard guard;
  dfg::Dfg g = benchmarks::make_benchmark("ex");

  auto run_once = [&]() -> std::vector<fp::SiteStats> {
    // Probability low enough that the run usually survives a few
    // iterations; the assertion is about determinism, not the outcome.
    EXPECT_TRUE(fp::configure("sched.reschedule:error:0.05:7"));
    core::SynthesisResult r = integrated_synthesis(g, serial_params());
    (void)r;
    std::vector<fp::SiteStats> s = fp::stats();
    fp::clear();
    return s;
  };

  std::vector<fp::SiteStats> first = run_once();
  std::vector<fp::SiteStats> second = run_once();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].hits, second[0].hits);
  EXPECT_EQ(first[0].triggers, second[0].triggers);
}

// The tentpole contract: a run degraded by a fault after k committed
// iterations returns a Partial result bit-identical to a clean run capped
// at max_iterations = k.
TEST(Failpoints, DegradedPartialMatchesCappedRun) {
  FailpointGuard guard;
  dfg::Dfg g = benchmarks::make_benchmark("diffeq");

  core::SynthesisResult full = integrated_synthesis(g, serial_params());
  ASSERT_EQ(full.completeness, core::Completeness::Full);
  ASSERT_GE(full.iterations, 3) << "benchmark too small for cut points";

  for (const int cut : {1, 2}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    core::SynthesisParams capped = serial_params();
    capped.max_iterations = cut;
    core::SynthesisResult reference = integrated_synthesis(g, capped);
    EXPECT_EQ(reference.completeness, core::Completeness::Partial);
    EXPECT_EQ(reference.stop_reason, "iteration_budget");
    EXPECT_EQ(reference.iterations, cut);

    // Arm a certain, single-shot fault from the iteration hook once `cut`
    // mergers have committed: the next iteration's reschedule throws and
    // the loop must degrade to the checkpoint at `cut`.
    core::SynthesisParams faulted = serial_params();
    std::atomic<int> seen{0};
    faulted.on_iteration = [&](const core::IterationRecord&) {
      if (seen.fetch_add(1, std::memory_order_relaxed) + 1 == cut) {
        ASSERT_TRUE(fp::configure("sched.reschedule:error:1:0:1"));
      }
    };
    core::SynthesisResult degraded = integrated_synthesis(g, faulted);
    fp::clear();

    EXPECT_EQ(degraded.completeness, core::Completeness::Partial);
    EXPECT_EQ(degraded.stop_reason.rfind("degraded: ", 0), 0u)
        << degraded.stop_reason;
    EXPECT_EQ(degraded.iterations, cut);
    expect_identical(reference, degraded);
  }
}

TEST(Failpoints, BadAllocDegradesToPartial) {
  FailpointGuard guard;
  dfg::Dfg g = benchmarks::make_benchmark("ex");
  ASSERT_TRUE(fp::configure("alloc.merge:badalloc:1:0:1"));
  core::SynthesisResult r = integrated_synthesis(g, serial_params());
  // The very first trial merge throws bad_alloc, so the loop degrades at
  // iteration 0 with the (valid) initial schedule/allocation.
  EXPECT_EQ(r.completeness, core::Completeness::Partial);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.stop_reason.rfind("degraded: ", 0), 0u) << r.stop_reason;
  EXPECT_GT(r.exec_time, 0);
  EXPECT_TRUE(core::audit_design(g, r.schedule, r.binding).ok());
}

TEST(Failpoints, InternalErrorsAreNotAbsorbed) {
  FailpointGuard guard;
  dfg::Dfg g = benchmarks::make_benchmark("ex");
  core::SynthesisParams p = serial_params();
  p.k = 0;  // trips HLTS_REQUIRE_INPUT, which must escape, not degrade
  EXPECT_THROW((void)integrated_synthesis(g, p), Error);
}

TEST(Failpoints, PoolTaskFaultPropagatesAndPoolSurvives) {
  FailpointGuard guard;
  util::ThreadPool pool(3);
  ASSERT_TRUE(fp::configure("pool.task:error:1:0:0"));
  try {
    pool.parallel_for(16, [](std::size_t) {});
    FAIL() << "expected an injected failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Transient);
    EXPECT_NE(std::string(e.what()).find("pool.task"), std::string::npos);
  }
  fp::clear();
  // The pool drains and stays usable after a task-level fault.
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 16);
}

TEST(Failpoints, EngineRetriesTransientAndRecovers) {
  FailpointGuard guard;
  dfg::Dfg g = benchmarks::make_benchmark("ex");
  core::FlowParams params;
  params.num_threads = 1;
  core::FlowResult expected = core::run_flow(core::FlowKind::Ours, g, params);

  // The worker site fails exactly twice; with max_retries = 2 the third
  // attempt runs clean and the job must succeed with the exact result.
  ASSERT_TRUE(fp::configure("engine.worker:error:1:0:2"));
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .threads_per_job = 1,
                      .max_retries = 2,
                      .retry_backoff = std::chrono::milliseconds(1)});
  engine::JobPtr job = eng.submit(engine::FlowRequest{.name = "retried",
                                   .kind = core::FlowKind::Ours,
                                   .dfg = g,
                                   .params = params});
  job->wait();
  fp::clear();

  EXPECT_EQ(job->state(), engine::JobState::Succeeded) << job->error();
  EXPECT_EQ(job->attempts(), 3);
  ASSERT_TRUE(job->result().has_value());
  EXPECT_EQ(job->result()->completeness, core::Completeness::Full);
  EXPECT_TRUE(expected.schedule == job->result()->schedule);
  EXPECT_EQ(expected.module_allocation, job->result()->module_allocation);
  util::TraceSnapshot metrics = eng.metrics();
  EXPECT_EQ(metrics.counters.at("jobs.retries"), 2);
}

TEST(Failpoints, RetryBudgetExhaustionFailsOnlyTheInjectedJob) {
  FailpointGuard guard;
  // Only the source-compiled job passes through frontend.parse; the
  // pre-built-DFG sibling never touches the site.
  ASSERT_TRUE(fp::configure("frontend.parse:error:1:0:0"));
  engine::Engine eng({.max_concurrent_jobs = 2,
                      .threads_per_job = 1,
                      .max_retries = 1,
                      .retry_backoff = std::chrono::milliseconds(1)});
  engine::FlowRequest doomed;
  doomed.name = "doomed";
  doomed.source =
      "design d {\n  input a, b;\n  output register s;\n  s = a * b + a;\n}";
  engine::FlowRequest healthy;
  healthy.name = "healthy";
  healthy.kind = core::FlowKind::Ours;
  healthy.dfg = benchmarks::make_benchmark("ex");
  healthy.params.num_threads = 1;
  std::vector<engine::JobPtr> jobs =
      eng.submit_batch({std::move(doomed), std::move(healthy)});
  eng.wait_all();
  fp::clear();

  EXPECT_EQ(jobs[0]->state(), engine::JobState::Failed);
  EXPECT_EQ(jobs[0]->attempts(), 2);  // 1 + max_retries
  EXPECT_NE(jobs[0]->error().find("frontend.parse"), std::string::npos);
  EXPECT_FALSE(jobs[0]->result().has_value());

  EXPECT_EQ(jobs[1]->state(), engine::JobState::Succeeded) << jobs[1]->error();
  ASSERT_TRUE(jobs[1]->result().has_value());
  EXPECT_EQ(jobs[1]->result()->completeness, core::Completeness::Full);
}

TEST(Failpoints, ParseErrorsAreInputKindAndNeverRetried) {
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .threads_per_job = 1,
                      .max_retries = 3,
                      .retry_backoff = std::chrono::milliseconds(1)});
  engine::FlowRequest bad;
  bad.name = "bad";
  bad.source = "design d {\n  input a;\n  output register s;\n  s = a $ a;\n}";
  engine::JobPtr job = eng.submit(std::move(bad));
  job->wait();
  EXPECT_EQ(job->state(), engine::JobState::Failed);
  EXPECT_EQ(job->attempts(), 1);  // Input errors must not burn retries
}

TEST(Failpoints, WatchdogFlagsAStalledJob) {
  FailpointGuard guard;
  // Every reschedule sleeps 80 ms while the stall deadline is 20 ms: the
  // first iteration's trial evaluations outlast the deadline and the
  // watchdog must flag the job, without changing its result.
  ASSERT_TRUE(fp::configure("sched.reschedule:delay:1:0:80"));
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .threads_per_job = 1,
                      .stall_deadline = std::chrono::milliseconds(20)});
  dfg::Dfg g = benchmarks::make_benchmark("ex");
  core::FlowParams params;
  params.num_threads = 1;
  params.max_iterations = 1;  // bound the injected delays
  engine::JobPtr job = eng.submit(engine::FlowRequest{.name = "slow",
                                   .kind = core::FlowKind::Ours,
                                   .dfg = g,
                                   .params = params});
  job->wait();
  fp::clear();

  EXPECT_TRUE(job->stalled());
  EXPECT_EQ(job->state(), engine::JobState::Succeeded) << job->error();
  EXPECT_GE(eng.metrics().counters.at("jobs.stall_flagged"), 1);

  core::FlowResult expected = core::run_flow(core::FlowKind::Ours, g, params);
  ASSERT_TRUE(job->result().has_value());
  EXPECT_TRUE(expected.schedule == job->result()->schedule);
}

TEST(Auditor, CleanDesignPasses) {
  dfg::Dfg g = benchmarks::make_benchmark("ex");
  core::SynthesisParams p = serial_params();
  p.audit = true;  // audits initial state and every commit in-loop
  core::SynthesisResult r = integrated_synthesis(g, p);
  EXPECT_EQ(r.completeness, core::Completeness::Full);
  EXPECT_TRUE(core::audit_design(g, r.schedule, r.binding).ok());
  etpn::Etpn e = etpn::build_data_path(g, r.schedule, r.binding);
  EXPECT_TRUE(core::audit_etpn(g, e, r.binding).ok());
}

TEST(Auditor, CatchesRegisterLifetimeOverlap) {
  dfg::Dfg g = benchmarks::make_benchmark("ex");
  core::SynthesisResult r = integrated_synthesis(g, serial_params());

  // Corrupt the binding: force-merge two registers whose variables have
  // overlapping lifetimes (merge_regs does not lifetime-check; the loop's
  // candidate filter normally does).
  const sched::LifetimeTable lifetimes =
      sched::LifetimeTable::compute(g, r.schedule);
  etpn::Binding corrupted = r.binding;
  // Find the pair first, merge after: merge_regs grows the survivor's var
  // list, which would invalidate iterators into it mid-scan.
  etpn::RegId keep = etpn::RegId::invalid();
  etpn::RegId victim = etpn::RegId::invalid();
  std::vector<etpn::RegId> regs = corrupted.alive_regs();
  for (std::size_t i = 0; i < regs.size() && !keep.valid(); ++i) {
    for (std::size_t j = i + 1; j < regs.size() && !keep.valid(); ++j) {
      for (dfg::VarId a : corrupted.reg_vars(regs[i])) {
        if (keep.valid()) break;
        for (dfg::VarId b : corrupted.reg_vars(regs[j])) {
          if (!lifetimes.disjoint(a, b)) {
            keep = regs[i];
            victim = regs[j];
            break;
          }
        }
      }
    }
  }
  ASSERT_TRUE(keep.valid()) << "no overlapping register pair found to corrupt";
  corrupted.merge_regs(keep, victim);

  core::AuditReport report = core::audit_design(g, r.schedule, corrupted);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("lifetime overlap"), std::string::npos);
  try {
    core::enforce_audit(report, "test");
    FAIL() << "expected enforce_audit to throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Internal);
  }
}

TEST(Auditor, CatchesPrecedenceViolation) {
  dfg::Dfg g = benchmarks::make_benchmark("ex");
  core::SynthesisResult r = integrated_synthesis(g, serial_params());

  // Move some dependent operation into (or before) its producer's step.
  sched::Schedule corrupted = r.schedule;
  bool moved = false;
  for (dfg::OpId op : g.op_ids()) {
    for (dfg::VarId in : g.op(op).inputs) {
      const dfg::OpId def = g.var(in).def;
      if (def.valid()) {
        corrupted.set_step(op, corrupted.step(def));
        moved = true;
        break;
      }
    }
    if (moved) break;
  }
  ASSERT_TRUE(moved);

  core::AuditReport report = core::audit_design(g, corrupted, r.binding);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("precedence"), std::string::npos);
}

TEST(Auditor, CatchesDanglingEtpnArc) {
  dfg::Dfg g = benchmarks::make_benchmark("ex");
  core::SynthesisResult r = integrated_synthesis(g, serial_params());
  etpn::Etpn e = etpn::build_data_path(g, r.schedule, r.binding);
  ASSERT_TRUE(core::audit_etpn(g, e, r.binding).ok());

  // Detach one arc from its destination's in-arc list: the back-link check
  // must report it as dangling.
  ASSERT_GT(e.data_path.num_arcs(), 0u);
  const etpn::DpArcId victim = *e.data_path.arc_ids().begin();
  const etpn::DpNodeId to = e.data_path.arc(victim).to;
  std::vector<etpn::DpArcId> pruned;
  for (etpn::DpArcId a : e.data_path.in_arcs(to)) {
    if (a != victim) pruned.push_back(a);
  }
  e.data_path.rewrite_in_list(to, pruned.data(),
                              static_cast<std::uint32_t>(pruned.size()));

  core::AuditReport report = core::audit_etpn(g, e, r.binding);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("in_arcs"), std::string::npos);
}

TEST(Auditor, FlowLevelAuditOptionRuns) {
  dfg::Dfg g = benchmarks::make_benchmark("ex");
  core::FlowParams params;
  params.num_threads = 1;
  params.audit = true;
  for (core::FlowKind kind :
       {core::FlowKind::Camad, core::FlowKind::Approach1,
        core::FlowKind::Approach2, core::FlowKind::Ours}) {
    SCOPED_TRACE(core::flow_name(kind));
    core::FlowResult r = core::run_flow(kind, g, params);
    EXPECT_GT(r.modules, 0);
  }
}

}  // namespace
}  // namespace hlts
