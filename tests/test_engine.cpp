// Tests for the async batch synthesis engine: batch results must be
// bit-identical to direct core::run_flow calls for every engine
// configuration, cancellation must take effect within one Algorithm-1
// iteration without touching sibling jobs, and per-job failures must stay
// per-job.  This executable carries the `tsan` CTest label (alongside
// `engine`) so the cancellation/shutdown paths run under
// -fsanitize=thread: a leaked or racing worker thread fails the build's
// `ctest -L tsan` run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "engine/engine.hpp"
#include "util/error.hpp"

namespace hlts {
namespace {

core::FlowParams paper_params() {
  core::FlowParams p;
  p.k = 5;
  p.alpha = 2;
  p.beta = 1;
  return p;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const core::FlowResult& expected,
                      const core::FlowResult& actual) {
  EXPECT_EQ(expected.exec_time, actual.exec_time);
  EXPECT_EQ(expected.registers, actual.registers);
  EXPECT_EQ(expected.modules, actual.modules);
  EXPECT_EQ(expected.muxes, actual.muxes);
  EXPECT_EQ(expected.self_loops, actual.self_loops);
  EXPECT_TRUE(bits_equal(expected.cost.total(), actual.cost.total()));
  EXPECT_TRUE(bits_equal(expected.balance_index, actual.balance_index));
  EXPECT_TRUE(expected.schedule == actual.schedule);
  EXPECT_EQ(expected.module_allocation, actual.module_allocation);
  EXPECT_EQ(expected.register_allocation, actual.register_allocation);
}

std::vector<engine::FlowRequest> paper_grid() {
  std::vector<engine::FlowRequest> requests;
  for (const char* bench : {"ex", "dct", "diffeq", "ewf"}) {
    dfg::Dfg g = benchmarks::make_benchmark(bench);
    for (core::FlowKind kind :
         {core::FlowKind::Camad, core::FlowKind::Approach1,
          core::FlowKind::Approach2, core::FlowKind::Ours}) {
      engine::FlowRequest r;
      r.name = std::string(bench) + "/" + core::flow_name(kind);
      r.kind = kind;
      r.dfg = g;
      r.params = paper_params();
      requests.push_back(std::move(r));
    }
  }
  return requests;
}

// The acceptance criterion: the full 4-benchmark x 4-flow grid run through
// the engine is bit-identical to serial run_flow, for more than one
// (jobs, threads-per-job) split.
TEST(Engine, BatchMatchesSerialRunFlowAcrossThreadConfigs) {
  std::vector<engine::FlowRequest> grid = paper_grid();
  std::vector<core::FlowResult> expected;
  for (const engine::FlowRequest& r : grid) {
    core::FlowParams serial = r.params;
    serial.num_threads = 1;
    expected.push_back(core::run_flow(r.kind, *r.dfg, serial));
  }

  for (const engine::EngineOptions& options :
       {engine::EngineOptions{.max_concurrent_jobs = 4, .threads_per_job = 2},
        engine::EngineOptions{.max_concurrent_jobs = 2,
                              .threads_per_job = 3}}) {
    engine::Engine eng(options);
    std::vector<engine::JobPtr> jobs = eng.submit_batch(paper_grid());
    eng.wait_all();
    ASSERT_EQ(jobs.size(), expected.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE(jobs[i]->name());
      ASSERT_EQ(jobs[i]->state(), engine::JobState::Succeeded)
          << jobs[i]->error();
      ASSERT_TRUE(jobs[i]->result().has_value());
      expect_identical(expected[i], *jobs[i]->result());
    }
  }
}

TEST(Engine, CancellationStopsWithinOneIterationAndSparesSiblings) {
  engine::Engine eng({.max_concurrent_jobs = 2, .threads_per_job = 1});

  dfg::Dfg ewf = benchmarks::make_benchmark("ewf");
  engine::FlowRequest victim{.name = "victim",
                             .kind = core::FlowKind::Ours,
                             .dfg = ewf,
                             .params = paper_params()};
  engine::FlowRequest sibling{.name = "sibling",
                              .kind = core::FlowKind::Ours,
                              .dfg = benchmarks::make_benchmark("diffeq"),
                              .params = paper_params()};

  // Cancel from the first progress callback: the merger loop must stop at
  // the next iteration boundary, i.e. at most one further record.  The
  // callback fires on a worker thread possibly before submit() returns, so
  // the handle is published under a mutex the callback takes first.
  std::mutex handle_mutex;
  engine::JobPtr victim_job;
  std::atomic<int> records_at_cancel{-1};
  engine::JobOptions cancel_on_first;
  cancel_on_first.on_iteration = [&](const core::IterationRecord&) {
    std::lock_guard<std::mutex> lock(handle_mutex);
    records_at_cancel.store(1, std::memory_order_relaxed);
    victim_job->cancel();
  };
  {
    std::lock_guard<std::mutex> lock(handle_mutex);
    victim_job = eng.submit(std::move(victim), cancel_on_first);
  }
  engine::JobPtr sibling_job = eng.submit(std::move(sibling));
  eng.wait_all();

  EXPECT_EQ(victim_job->state(), engine::JobState::Cancelled);
  EXPECT_EQ(records_at_cancel.load(), 1);
  // One committed merger before the cancel, none after the boundary check.
  EXPECT_LE(victim_job->progress().size(), 1u);
  // The partial design is still a fully consistent FlowResult.
  ASSERT_TRUE(victim_job->result().has_value());
  EXPECT_GT(victim_job->result()->exec_time, 0);

  // The sibling is untouched: same result a direct serial call produces.
  ASSERT_EQ(sibling_job->state(), engine::JobState::Succeeded);
  core::FlowParams serial = paper_params();
  serial.num_threads = 1;
  expect_identical(core::run_flow(core::FlowKind::Ours,
                                  benchmarks::make_benchmark("diffeq"), serial),
                   *sibling_job->result());
}

TEST(Engine, CancelBeforeStartSkipsTheRun) {
  engine::Engine eng({.max_concurrent_jobs = 1, .threads_per_job = 1});
  // The first job occupies the single worker long enough for the second to
  // still be pending when it is cancelled.
  engine::JobPtr busy = eng.submit(engine::FlowRequest{.name = "busy",
                                    .kind = core::FlowKind::Ours,
                                    .dfg = benchmarks::make_benchmark("ewf"),
                                    .params = paper_params()});
  engine::JobPtr doomed = eng.submit(engine::FlowRequest{.name = "doomed",
                                      .kind = core::FlowKind::Ours,
                                      .dfg = benchmarks::make_benchmark("ex"),
                                      .params = paper_params()});
  doomed->cancel();
  eng.wait_all();
  EXPECT_EQ(busy->state(), engine::JobState::Succeeded);
  EXPECT_EQ(doomed->state(), engine::JobState::Cancelled);
  EXPECT_FALSE(doomed->result().has_value());
  EXPECT_EQ(doomed->wall_ms(), 0.0);
  EXPECT_TRUE(doomed->progress().empty());
}

TEST(Engine, TimeoutCancelsAtIterationBoundary) {
  engine::Engine eng({.max_concurrent_jobs = 1, .threads_per_job = 1});
  engine::JobOptions options;
  options.timeout = std::chrono::milliseconds(1);
  engine::JobPtr job = eng.submit(engine::FlowRequest{.name = "deadline",
                                   .kind = core::FlowKind::Ours,
                                   .dfg = benchmarks::make_benchmark("ewf"),
                                   .params = paper_params()},
                                  options);
  job->wait();
  EXPECT_EQ(job->state(), engine::JobState::TimedOut);
  ASSERT_TRUE(job->result().has_value());  // partial but consistent design
}

TEST(Engine, ParseFailureFailsOnlyThatJob) {
  engine::Engine eng({.max_concurrent_jobs = 2, .threads_per_job = 1});
  engine::FlowRequest bad;
  bad.name = "bad";
  bad.source = "design d {\n  input a;\n  output register s;\n  s = a $ a;\n}";
  engine::FlowRequest good;
  good.name = "good";
  good.source =
      "design d {\n  input a, b;\n  output register s;\n  s = a * b + a;\n}";
  std::vector<engine::JobPtr> jobs =
      eng.submit_batch({std::move(bad), std::move(good)});
  eng.wait_all();

  EXPECT_EQ(jobs[0]->state(), engine::JobState::Failed);
  EXPECT_NE(jobs[0]->error().find("4"), std::string::npos);  // line number
  EXPECT_FALSE(jobs[0]->result().has_value());

  EXPECT_EQ(jobs[1]->state(), engine::JobState::Succeeded);
  EXPECT_TRUE(jobs[1]->error().empty());
  ASSERT_TRUE(jobs[1]->result().has_value());
  EXPECT_GT(jobs[1]->result()->modules, 0);
}

TEST(Engine, SynthesisErrorBecomesFailedState) {
  engine::Engine eng({.max_concurrent_jobs = 1, .threads_per_job = 1});
  core::FlowParams params = paper_params();
  params.k = 0;  // trips the synthesis contract check on the worker thread
  engine::JobPtr job = eng.submit(engine::FlowRequest{.name = "infeasible",
                                   .kind = core::FlowKind::Ours,
                                   .dfg = benchmarks::make_benchmark("ex"),
                                   .params = params});
  job->wait();
  EXPECT_EQ(job->state(), engine::JobState::Failed);
  EXPECT_FALSE(job->error().empty());
}

TEST(Engine, StreamsProgressAndRecordsTrace) {
  engine::Engine eng({.max_concurrent_jobs = 1, .threads_per_job = 2});
  std::atomic<int> callbacks{0};
  engine::JobOptions options;
  options.on_iteration = [&](const core::IterationRecord& rec) {
    callbacks.fetch_add(1, std::memory_order_relaxed);
    EXPECT_FALSE(rec.description.empty());
  };
  engine::JobPtr job = eng.submit(engine::FlowRequest{.name = "traced",
                                   .kind = core::FlowKind::Ours,
                                   .dfg = benchmarks::make_benchmark("ex"),
                                   .params = paper_params()},
                                  options);
  job->wait();
  ASSERT_EQ(job->state(), engine::JobState::Succeeded);
  EXPECT_GT(callbacks.load(), 0);
  EXPECT_EQ(static_cast<std::size_t>(callbacks.load()),
            job->progress().size());

  // The per-job trace saw the Algorithm-1 phases and counted the mergers.
  const util::TraceSnapshot& trace = job->trace();
  EXPECT_EQ(trace.counters.at("synth.mergers"),
            static_cast<std::int64_t>(job->progress().size()));
  bool saw_iteration_span = false;
  for (const util::SpanRecord& s : trace.spans) {
    if (s.name == "synth.iteration") saw_iteration_span = true;
  }
  EXPECT_TRUE(saw_iteration_span);
  EXPECT_GT(job->wall_ms(), 0.0);
}

TEST(Engine, MetricsCountJobStatesAndSpanPerJob) {
  engine::Engine eng({.max_concurrent_jobs = 2, .threads_per_job = 1});
  engine::FlowRequest ok{.name = "ok",
                         .kind = core::FlowKind::Approach1,
                         .dfg = benchmarks::make_benchmark("ex"),
                         .params = paper_params()};
  engine::FlowRequest broken;
  broken.name = "broken";
  broken.source = "not a design";
  std::vector<engine::JobPtr> jobs =
      eng.submit_batch({std::move(ok), std::move(broken)});
  eng.wait_all();

  const util::TraceSnapshot m = eng.metrics();
  EXPECT_EQ(m.counters.at("jobs.submitted"), 2);
  EXPECT_EQ(m.counters.at("jobs.succeeded"), 1);
  EXPECT_EQ(m.counters.at("jobs.failed"), 1);
  // Each job's time lives in the job (wall_ms, its own trace); the
  // engine-level snapshot must not grow with the number of jobs served.
  for (int i = 0; i < 8; ++i) {
    (void)eng.submit(engine::FlowRequest{
        .name = "more",
        .kind = core::FlowKind::Approach1,
        .dfg = benchmarks::make_benchmark("ex"),
        .params = paper_params()});
  }
  eng.wait_all();
  const util::TraceSnapshot later = eng.metrics();
  EXPECT_EQ(later.counters.at("jobs.succeeded"), 9);
  EXPECT_EQ(later.spans.size(), m.spans.size());
  (void)jobs;
}

TEST(Engine, AutoNamesAndOptionDefaults) {
  engine::Engine eng;
  EXPECT_GE(eng.max_concurrent_jobs(), 1);
  EXPECT_GE(eng.threads_per_job(), 1);
  engine::FlowRequest r;
  r.kind = core::FlowKind::Approach2;
  r.dfg = benchmarks::make_benchmark("ex");
  engine::JobPtr job = eng.submit(std::move(r));
  job->wait();
  EXPECT_EQ(job->state(), engine::JobState::Succeeded);
  EXPECT_NE(job->name().find("Approach 2"), std::string::npos);
}

TEST(Engine, DestructorDrainsPendingJobs) {
  std::vector<engine::JobPtr> jobs;
  {
    engine::Engine eng({.max_concurrent_jobs = 1, .threads_per_job = 1});
    for (const char* bench : {"ex", "diffeq", "ex", "diffeq"}) {
      jobs.push_back(eng.submit(engine::FlowRequest{.name = bench,
                                 .kind = core::FlowKind::Ours,
                                 .dfg = benchmarks::make_benchmark(bench),
                                 .params = paper_params()}));
    }
    // No wait_all: the destructor must finish every submitted job and join
    // all workers before returning.
  }
  for (const engine::JobPtr& job : jobs) {
    EXPECT_EQ(job->state(), engine::JobState::Succeeded) << job->error();
  }
}

// The anytime acceptance criterion: a job cancelled after k committed
// iterations holds a Partial result bit-identical to a clean run capped at
// max_iterations = k -- across several cut points and thread configs.
TEST(Engine, CancelledAfterKIterationsMatchesCappedRun) {
  dfg::Dfg g = benchmarks::make_benchmark("diffeq");
  for (const int cut : {1, 2}) {
    core::FlowParams capped = paper_params();
    capped.num_threads = 1;
    capped.max_iterations = cut;
    const core::FlowResult reference =
        core::run_flow(core::FlowKind::Ours, g, capped);
    ASSERT_EQ(reference.iterations, cut);
    ASSERT_EQ(reference.completeness, core::Completeness::Partial);
    ASSERT_EQ(reference.stop_reason, "iteration_budget");

    for (const int threads : {1, 2}) {
      SCOPED_TRACE("cut=" + std::to_string(cut) +
                   " threads=" + std::to_string(threads));
      engine::Engine eng(
          {.max_concurrent_jobs = 1, .threads_per_job = threads});
      std::mutex handle_mutex;
      engine::JobPtr job;
      std::atomic<int> records{0};
      engine::JobOptions options;
      options.on_iteration = [&](const core::IterationRecord&) {
        if (records.fetch_add(1, std::memory_order_relaxed) + 1 == cut) {
          std::lock_guard<std::mutex> lock(handle_mutex);
          job->cancel();
        }
      };
      {
        std::lock_guard<std::mutex> lock(handle_mutex);
        job = eng.submit(engine::FlowRequest{.name = "cut",
                          .kind = core::FlowKind::Ours,
                          .dfg = g,
                          .params = paper_params()},
                         options);
      }
      job->wait();

      ASSERT_EQ(job->state(), engine::JobState::Cancelled);
      ASSERT_TRUE(job->result().has_value());
      const core::FlowResult& partial = *job->result();
      EXPECT_EQ(partial.completeness, core::Completeness::Partial);
      EXPECT_EQ(partial.stop_reason, "cancelled");
      EXPECT_EQ(partial.iterations, cut);
      expect_identical(reference, partial);
    }
  }
}

TEST(Engine, CompletenessTagsAndAttemptDefaults) {
  engine::Engine eng({.max_concurrent_jobs = 1, .threads_per_job = 1});
  engine::JobPtr job = eng.submit(engine::FlowRequest{.name = "clean",
                                   .kind = core::FlowKind::Ours,
                                   .dfg = benchmarks::make_benchmark("ex"),
                                   .params = paper_params()});
  job->wait();
  ASSERT_EQ(job->state(), engine::JobState::Succeeded);
  EXPECT_EQ(job->attempts(), 1);
  EXPECT_FALSE(job->stalled());
  ASSERT_TRUE(job->result().has_value());
  EXPECT_EQ(job->result()->completeness, core::Completeness::Full);
  EXPECT_EQ(job->result()->stop_reason, "converged");
  EXPECT_EQ(static_cast<std::size_t>(job->result()->iterations),
            job->progress().size());
  EXPECT_STREQ(core::completeness_name(core::Completeness::Full), "full");
  EXPECT_STREQ(core::completeness_name(core::Completeness::Partial),
               "partial");
}

TEST(Engine, TimedOutJobIsTaggedPartial) {
  engine::Engine eng({.max_concurrent_jobs = 1, .threads_per_job = 1});
  engine::JobOptions options;
  options.timeout = std::chrono::milliseconds(1);
  engine::JobPtr job = eng.submit(engine::FlowRequest{.name = "deadline",
                                   .kind = core::FlowKind::Ours,
                                   .dfg = benchmarks::make_benchmark("ewf"),
                                   .params = paper_params()},
                                  options);
  job->wait();
  ASSERT_EQ(job->state(), engine::JobState::TimedOut);
  ASSERT_TRUE(job->result().has_value());
  EXPECT_EQ(job->result()->completeness, core::Completeness::Partial);
  EXPECT_EQ(job->result()->stop_reason, "cancelled");  // timeout uses cancel
}

TEST(Engine, JobStateNames) {
  EXPECT_STREQ(engine::job_state_name(engine::JobState::Pending), "pending");
  EXPECT_STREQ(engine::job_state_name(engine::JobState::Succeeded),
               "succeeded");
  EXPECT_STREQ(engine::job_state_name(engine::JobState::TimedOut),
               "timed_out");
}

}  // namespace
}  // namespace hlts
