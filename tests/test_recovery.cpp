// Durability and overload tests: checkpoint/DFG/params JSON round-trips,
// Algorithm-1 resume bit-identity, the engine journal's crash-safety
// protocol (scan, interrupted cleanups, corrupt files), the fork-based
// kill-and-recover soak over every journal failpoint site, and the
// admission-control policies (Block / Reject / ShedOldest, queue deadlines,
// EngineHealth).
//
// The soak's contract is the ISSUE acceptance criterion: killing the
// process at any journal/checkpoint failpoint and replaying the directory
// through Engine::recover() yields a FlowResult bit-identical to the
// uninterrupted run, across >= 2 benchmarks x {1, 4} trial threads.
//
// Failpoint configuration is process-global; the soak therefore arms kill
// failpoints only in a fork()ed child, so the parent test process is never
// armed, and ctest runs each test in its own process anyway.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/checkpoint.hpp"
#include "core/flows.hpp"
#include "core/synthesis.hpp"
#include "engine/engine.hpp"
#include "engine/journal.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace hlts {
namespace {

namespace fp = util::failpoint;

// --- helpers ----------------------------------------------------------------

/// Fresh scratch directory under TMPDIR, removed (with its files) on scope
/// exit so repeated ctest runs never see a stale journal.
struct TempDir {
  std::string path;
  TempDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/hlts_recovery_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : tmpl;
  }
  ~TempDir() {
    for (const std::string& name : util::fs::list_all_files(path)) {
      util::fs::remove_file(path + "/" + name);
    }
    ::rmdir(path.c_str());
  }
};

/// Restores (or unsets) one environment variable on scope exit.
struct EnvGuard {
  std::string name;
  std::optional<std::string> saved;
  explicit EnvGuard(std::string n) : name(std::move(n)) {
    const char* v = std::getenv(name.c_str());
    if (v != nullptr) saved = v;
  }
  ~EnvGuard() {
    if (saved) {
      ::setenv(name.c_str(), saved->c_str(), 1);
    } else {
      ::unsetenv(name.c_str());
    }
  }
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Structural bit-equality of two bindings, via the canonical serialized
/// form (per-slot member lists including tombstones -- see checkpoint.hpp).
bool same_binding(const sched::Schedule& s, const etpn::Binding& a,
                  const etpn::Binding& b) {
  const core::Checkpoint ca{0, s, a};
  const core::Checkpoint cb{0, s, b};
  return util::json_dump(core::checkpoint_to_json(ca)) ==
         util::json_dump(core::checkpoint_to_json(cb));
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
  EXPECT_EQ(expected.iterations, actual.iterations);
  EXPECT_EQ(expected.stop_reason, actual.stop_reason);
  EXPECT_EQ(expected.completeness, actual.completeness);
}

core::FlowParams test_params(int threads) {
  core::FlowParams p;
  p.num_threads = threads;
  return p;
}

util::JsonValue reparse(const util::JsonValue& v) {
  std::string error;
  std::optional<util::JsonValue> doc = util::json_parse(util::json_dump(v),
                                                        &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc ? *doc : util::JsonValue();
}

/// `params` in the form older builds wrote: with the retired "incremental"
/// flag right after "audit".
util::JsonValue with_incremental_flag(const util::JsonValue& params,
                                      bool flag) {
  util::JsonValue::Object out;
  for (const auto& [key, value] : params.as_object()) {
    out.emplace_back(key, value);
    if (key == "audit") {
      out.emplace_back("incremental", util::JsonValue::make_bool(flag));
    }
  }
  return util::JsonValue::make_object(std::move(out));
}

/// A FlowRequestV1 document whose params carry the retired flag.
util::JsonValue request_with_incremental_flag(const util::JsonValue& request,
                                              bool flag) {
  util::JsonValue::Object out;
  for (const auto& [key, value] : request.as_object()) {
    out.emplace_back(key, key == "params" ? with_incremental_flag(value, flag)
                                          : value);
  }
  return util::JsonValue::make_object(std::move(out));
}

/// One-shot latch for holding a job's first committed iteration open, so a
/// single-worker engine keeps its pending queue saturated deterministically.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  void release() {
    {
      const std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return open; });
  }
};

engine::FlowRequest ours_request(const std::string& bench, int threads) {
  engine::FlowRequest r;
  r.name = bench + "/ours";
  r.kind = core::FlowKind::Ours;
  r.dfg = benchmarks::make_benchmark(bench);
  r.params = test_params(threads);
  return r;
}

// --- JSON round-trips -------------------------------------------------------

TEST(CheckpointJson, DfgRoundTripsBitIdentical) {
  for (const char* bench : {"ex", "dct", "diffeq", "ewf"}) {
    const dfg::Dfg g = benchmarks::make_benchmark(bench);
    const util::JsonValue doc = core::dfg_to_json(g);
    const dfg::Dfg back = core::dfg_from_json(reparse(doc));
    // Same construction order => same dense ids; the serialized forms (and
    // hence every downstream computation) must match exactly.
    EXPECT_EQ(util::json_dump(core::dfg_to_json(back)), util::json_dump(doc))
        << bench;
    core::FlowResult a = core::run_flow(core::FlowKind::Ours, g,
                                        test_params(1));
    core::FlowResult b = core::run_flow(core::FlowKind::Ours, back,
                                        test_params(1));
    expect_identical(a, b);
  }
}

TEST(CheckpointJson, ParamsRoundTrip) {
  core::FlowParams p;
  p.bits = 16;
  p.k = 7;
  p.alpha = 1.25;
  p.beta = 0.5;
  p.max_latency = 12;
  p.num_threads = 3;
  p.max_iterations = 42;
  p.memory_budget_bytes = 1 << 20;
  p.audit = true;
  p.atpg_backend = "hybrid";
  p.sat_frames = 6;
  p.sat_conflict_budget = 1234;
  const core::FlowParams q = core::params_from_json(
      reparse(core::params_to_json(p)));
  EXPECT_EQ(q.bits, p.bits);
  EXPECT_EQ(q.k, p.k);
  EXPECT_TRUE(bits_equal(q.alpha, p.alpha));
  EXPECT_TRUE(bits_equal(q.beta, p.beta));
  EXPECT_EQ(q.max_latency, p.max_latency);
  EXPECT_EQ(q.num_threads, p.num_threads);
  EXPECT_EQ(q.max_iterations, p.max_iterations);
  EXPECT_EQ(q.memory_budget_bytes, p.memory_budget_bytes);
  EXPECT_EQ(q.audit, p.audit);
  EXPECT_EQ(q.atpg_backend, p.atpg_backend);
  EXPECT_EQ(q.sat_frames, p.sat_frames);
  EXPECT_EQ(q.sat_conflict_budget, p.sat_conflict_budget);

  // Journals written before the ATPG-backend knobs existed must stay
  // readable: absent members resolve to the defaults.
  util::JsonValue legacy = core::params_to_json(core::FlowParams{});
  util::JsonValue::Object trimmed;
  for (const auto& [key, value] : legacy.as_object()) {
    if (key != "atpg_backend" && key != "sat_frames" &&
        key != "sat_conflict_budget") {
      trimmed.emplace_back(key, value);
    }
  }
  const core::FlowParams old = core::params_from_json(
      reparse(util::JsonValue::make_object(std::move(trimmed))));
  EXPECT_EQ(old.atpg_backend, "");
  EXPECT_EQ(old.sat_frames, 0);
  EXPECT_EQ(old.sat_conflict_budget, 0);
}

// Builds that still had a from-scratch synthesis mode wrote an
// "incremental" member into every params document, on the wire and in
// journals; both settings must still parse, to the same knob set.
TEST(CheckpointJson, ParamsWithRetiredIncrementalFlagStillParse) {
  core::FlowParams p;
  p.bits = 16;
  p.k = 7;
  p.num_threads = 2;
  const std::string expected = util::json_dump(core::params_to_json(p));
  api::FlowRequestV1 req;
  req.name = "ex/ours";
  req.kind = core::FlowKind::Ours;
  req.dfg = benchmarks::make_benchmark("ex");
  req.params = p;
  for (const bool flag : {true, false}) {
    const core::FlowParams q = core::params_from_json(
        reparse(with_incremental_flag(core::params_to_json(p), flag)));
    EXPECT_EQ(util::json_dump(core::params_to_json(q)), expected) << flag;

    const api::FlowRequestV1 back = api::FlowRequestV1::from_json(
        reparse(request_with_incremental_flag(req.to_json(), flag)));
    EXPECT_EQ(back.name, req.name);
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(util::json_dump(core::params_to_json(back.params)), expected)
        << flag;
  }
}

TEST(CheckpointJson, CheckpointRoundTripsAndRejectsCorruption) {
  const dfg::Dfg g = benchmarks::make_benchmark("ex");
  std::vector<core::Checkpoint> ckpts;
  core::SynthesisParams p;
  p.num_threads = 1;
  p.checkpoint_every = 1;
  p.on_checkpoint = [&](const core::Checkpoint& c) { ckpts.push_back(c); };
  (void)core::integrated_synthesis(g, p);
  ASSERT_GE(ckpts.size(), 2u);

  for (const core::Checkpoint& c : ckpts) {
    const util::JsonValue doc = core::checkpoint_to_json(c);
    const core::Checkpoint back = core::checkpoint_from_json(reparse(doc), g);
    EXPECT_EQ(back.iteration, c.iteration);
    EXPECT_TRUE(back.schedule == c.schedule);
    EXPECT_TRUE(same_binding(c.schedule, c.binding, back.binding));
  }

  // Untrusted-input contract: structural damage must surface as
  // Error(Input), never a crash or a silently wrong design.
  EXPECT_THROW((void)core::checkpoint_from_json(util::JsonValue::make_int(3), g),
               Error);
  util::JsonValue doc = core::checkpoint_to_json(ckpts.front());
  std::string text = util::json_dump(doc);
  const std::string needle = "\"iteration\":";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "\"wrong_key\":");
  std::string error;
  std::optional<util::JsonValue> damaged = util::json_parse(text, &error);
  ASSERT_TRUE(damaged.has_value()) << error;
  EXPECT_THROW((void)core::checkpoint_from_json(*damaged, g), Error);
}

// --- Algorithm-1 resume bit-identity ----------------------------------------

TEST(Resume, BitIdenticalAcrossBenchmarksAndThreads) {
  for (const char* bench : {"ex", "dct"}) {
    const dfg::Dfg g = benchmarks::make_benchmark(bench);
    for (const int threads : {1, 4}) {
      const core::FlowParams params = test_params(threads);
      const core::FlowResult full =
          core::run_flow(core::FlowKind::Ours, g, params);

      std::vector<core::Checkpoint> ckpts;
      core::FlowParams recording = params;
      recording.checkpoint_every = 2;
      recording.on_checkpoint = [&](const core::Checkpoint& c) {
        ckpts.push_back(c);
      };
      (void)core::run_flow(core::FlowKind::Ours, g, recording);
      ASSERT_FALSE(ckpts.empty()) << bench;

      // Resume from every persisted boundary (through the JSON round-trip,
      // exactly as the journal replays it) and compare against the
      // uninterrupted run.
      for (const core::Checkpoint& c : ckpts) {
        const core::Checkpoint back =
            core::checkpoint_from_json(reparse(core::checkpoint_to_json(c)),
                                       g);
        core::FlowParams resume = params;
        resume.resume_from = &back;
        const core::FlowResult resumed =
            core::run_flow(core::FlowKind::Ours, g, resume);
        expect_identical(full, resumed);
      }
    }
  }
}

TEST(Resume, CheckpointBoundariesMatchUninterruptedRun) {
  // Absolute-iteration cadence: a resumed run must emit checkpoints at the
  // same committed-merger counts the uninterrupted run does.
  const dfg::Dfg g = benchmarks::make_benchmark("ex");
  std::vector<int> uninterrupted;
  core::FlowParams p = test_params(1);
  p.checkpoint_every = 2;
  p.on_checkpoint = [&](const core::Checkpoint& c) {
    uninterrupted.push_back(c.iteration);
  };
  (void)core::run_flow(core::FlowKind::Ours, g, p);
  ASSERT_GE(uninterrupted.size(), 2u);

  std::vector<core::Checkpoint> ckpts;
  core::FlowParams rec = test_params(1);
  rec.checkpoint_every = 2;
  rec.on_checkpoint = [&](const core::Checkpoint& c) { ckpts.push_back(c); };
  (void)core::run_flow(core::FlowKind::Ours, g, rec);

  std::vector<int> resumed;
  core::FlowParams rp = test_params(1);
  rp.checkpoint_every = 2;
  rp.resume_from = &ckpts.front();
  rp.on_checkpoint = [&](const core::Checkpoint& c) {
    resumed.push_back(c.iteration);
  };
  (void)core::run_flow(core::FlowKind::Ours, g, rp);

  const std::vector<int> expected(uninterrupted.begin() + 1,
                                  uninterrupted.end());
  EXPECT_EQ(resumed, expected);
}

TEST(Resume, RejectsInvalidResumeState) {
  const dfg::Dfg g = benchmarks::make_benchmark("ex");
  std::vector<core::Checkpoint> ckpts;
  core::SynthesisParams rec;
  rec.num_threads = 1;
  rec.checkpoint_every = 1;
  rec.on_checkpoint = [&](const core::Checkpoint& c) { ckpts.push_back(c); };
  (void)core::integrated_synthesis(g, rec);
  ASSERT_FALSE(ckpts.empty());

  // trial_cache's cross-iteration memory is not part of a checkpoint.
  core::SynthesisParams bad;
  bad.num_threads = 1;
  bad.trial_cache = true;
  bad.resume_from = &ckpts.front();
  EXPECT_THROW((void)core::integrated_synthesis(g, bad), Error);

  // A checkpoint from a different design cannot seed this graph.
  const dfg::Dfg other = benchmarks::make_benchmark("dct");
  core::SynthesisParams mismatched;
  mismatched.num_threads = 1;
  mismatched.resume_from = &ckpts.front();
  EXPECT_THROW((void)core::integrated_synthesis(other, mismatched), Error);
}

// --- journal scan protocol --------------------------------------------------

engine::JournalRecord make_record(std::uint64_t id, const std::string& bench) {
  engine::JournalRecord r;
  r.id = id;
  r.name = bench + "/ours";
  r.kind = core::FlowKind::Ours;
  r.dfg = benchmarks::make_benchmark(bench);
  r.params = test_params(1);
  r.timeout_ms = 0;
  return r;
}

TEST(Journal, WriteScanRoundTrip) {
  const TempDir dir;
  const engine::Journal j(dir.path);
  j.write_job(make_record(3, "ex"));
  engine::JournalRecord dsl;
  dsl.id = 7;
  dsl.name = "tiny";
  dsl.kind = core::FlowKind::Ours;
  dsl.source = "design tiny { input a, b; output o; o = a + b; }";
  dsl.params = test_params(1);
  dsl.timeout_ms = 1500;
  j.write_job(dsl);

  const engine::Journal::ScanResult scan = engine::Journal::scan(dir.path);
  EXPECT_TRUE(scan.errors.empty());
  ASSERT_EQ(scan.jobs.size(), 2u);
  EXPECT_EQ(scan.jobs[0].record.id, 3u);
  EXPECT_TRUE(scan.jobs[0].record.dfg.has_value());
  EXPECT_EQ(scan.jobs[1].record.id, 7u);
  EXPECT_EQ(scan.jobs[1].record.name, "tiny");
  EXPECT_EQ(scan.jobs[1].record.source, dsl.source);
  EXPECT_EQ(scan.jobs[1].record.timeout_ms, 1500);
  EXPECT_FALSE(scan.jobs[0].checkpoint.has_value());
}

TEST(Journal, DoneMarkerRetiresAndScanCompletesInterruptedCleanup) {
  const TempDir dir;
  const engine::Journal j(dir.path);
  j.write_job(make_record(1, "ex"));
  j.write_done(1, "succeeded");
  EXPECT_TRUE(util::fs::list_files(dir.path).empty());

  // A cleanup that died right after the marker became durable: the next
  // scan must finish it and must not resurrect the job.
  j.write_job(make_record(2, "ex"));
  util::fs::write_file_atomic(dir.path + "/job-2.done.json",
                              "{\"version\":1,\"id\":2,\"state\":\"x\"}\n");
  const engine::Journal::ScanResult scan = engine::Journal::scan(dir.path);
  EXPECT_TRUE(scan.jobs.empty());
  EXPECT_TRUE(scan.errors.empty());
  EXPECT_TRUE(util::fs::list_files(dir.path).empty());
}

TEST(Journal, ScanSweepsOrphansAndIgnoresTornTmp) {
  const TempDir dir;
  // Orphan checkpoint (its record's cleanup died between the two removes).
  util::fs::write_file_atomic(dir.path + "/job-9.ckpt.json", "{}");
  // Torn in-flight temp from a mid-write crash.
  util::fs::write_file_atomic(dir.path + "/job-4.json.tmp", "{\"trunc");
  const engine::Journal::ScanResult scan = engine::Journal::scan(dir.path);
  EXPECT_TRUE(scan.jobs.empty());
  EXPECT_FALSE(util::fs::file_exists(dir.path + "/job-9.ckpt.json"));
}

TEST(Journal, CorruptRecordReportedAndLeftInPlace) {
  const TempDir dir;
  const engine::Journal j(dir.path);
  j.write_job(make_record(1, "ex"));
  util::fs::write_file_atomic(dir.path + "/job-5.json", "\x01junk bytes\xff");
  const engine::Journal::ScanResult scan = engine::Journal::scan(dir.path);
  ASSERT_EQ(scan.jobs.size(), 1u);
  EXPECT_EQ(scan.jobs[0].record.id, 1u);
  ASSERT_EQ(scan.errors.size(), 1u);
  EXPECT_NE(scan.errors[0].find("job-5.json"), std::string::npos);
  // Left in place for inspection -- scan never destroys undecipherable data.
  EXPECT_TRUE(util::fs::file_exists(dir.path + "/job-5.json"));
}

TEST(Journal, CorruptCheckpointRemovedJobRestartsFromScratch) {
  const TempDir dir;
  const engine::Journal j(dir.path);
  j.write_job(make_record(1, "ex"));
  util::fs::write_file_atomic(dir.path + "/job-1.ckpt.json", "not json");
  const engine::Journal::ScanResult scan = engine::Journal::scan(dir.path);
  ASSERT_EQ(scan.jobs.size(), 1u);
  EXPECT_FALSE(scan.jobs[0].checkpoint.has_value());
  ASSERT_EQ(scan.errors.size(), 1u);
  EXPECT_NE(scan.errors[0].find("restarts from scratch"), std::string::npos);
  EXPECT_FALSE(util::fs::file_exists(dir.path + "/job-1.ckpt.json"));
}

// --- engine journaling and recovery (in-process) ----------------------------

TEST(EngineJournal, CompletedJobsRetireTheirRecords) {
  const TempDir dir;
  core::FlowResult reference;
  {
    engine::Engine eng({.max_concurrent_jobs = 1,
                        .journal_dir = dir.path,
                        .checkpoint_every = 1});
    const engine::JobPtr job = eng.submit(ours_request("ex", 1));
    eng.wait_all();
    ASSERT_EQ(job->state(), engine::JobState::Succeeded);
    reference = *job->result();
    EXPECT_TRUE(eng.health().journaling);
    EXPECT_EQ(eng.health().journal_lag, 0u);
  }
  // Retired: nothing left to replay.
  EXPECT_TRUE(util::fs::list_files(dir.path).empty());
  expect_identical(core::run_flow(core::FlowKind::Ours,
                                  benchmarks::make_benchmark("ex"),
                                  test_params(1)),
                   reference);
}

TEST(EngineJournal, RecoverReplaysUnfinishedJobs) {
  const TempDir dir;
  {
    const engine::Journal j(dir.path);
    j.write_job(make_record(11, "ex"));
    j.write_job(make_record(12, "dct"));
  }
  engine::Engine eng({.max_concurrent_jobs = 2,
                      .journal_dir = dir.path,
                      .checkpoint_every = 1});
  const engine::Engine::RecoveryReport report = eng.recover(dir.path);
  EXPECT_TRUE(report.errors.empty());
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0]->id(), 11u);
  EXPECT_EQ(report.jobs[1]->id(), 12u);
  eng.wait_all();
  EXPECT_EQ(eng.health().recovered, 2u);
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    ASSERT_EQ(report.jobs[i]->state(), engine::JobState::Succeeded);
    const char* bench = i == 0 ? "ex" : "dct";
    expect_identical(core::run_flow(core::FlowKind::Ours,
                                    benchmarks::make_benchmark(bench),
                                    test_params(1)),
                     *report.jobs[i]->result());
  }
  // Re-journaled into the same directory, then retired on completion.
  EXPECT_TRUE(util::fs::list_files(dir.path).empty());
  // Fresh submissions must not collide with the recovered ids.
  const engine::JobPtr fresh = eng.submit(ours_request("ex", 1));
  EXPECT_GT(fresh->id(), 12u);
  eng.wait_all();
}

TEST(EngineJournal, RecoverResumesFromPersistedCheckpoint) {
  const TempDir dir;
  const dfg::Dfg g = benchmarks::make_benchmark("dct");
  std::vector<core::Checkpoint> ckpts;
  core::FlowParams rec = test_params(1);
  rec.checkpoint_every = 2;
  rec.on_checkpoint = [&](const core::Checkpoint& c) { ckpts.push_back(c); };
  (void)core::run_flow(core::FlowKind::Ours, g, rec);
  ASSERT_GE(ckpts.size(), 2u);

  {
    const engine::Journal j(dir.path);
    j.write_job(make_record(5, "dct"));
    j.write_checkpoint(5, ckpts[ckpts.size() / 2]);
  }
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .journal_dir = dir.path,
                      .checkpoint_every = 2});
  const engine::Engine::RecoveryReport report = eng.recover(dir.path);
  ASSERT_EQ(report.jobs.size(), 1u);
  eng.wait_all();
  ASSERT_EQ(report.jobs[0]->state(), engine::JobState::Succeeded);
  expect_identical(core::run_flow(core::FlowKind::Ours, g, test_params(1)),
                   *report.jobs[0]->result());
}

TEST(EngineJournal, RecoverIntoForeignDirLeavesRecordsInPlace) {
  const TempDir dir;
  {
    const engine::Journal j(dir.path);
    j.write_job(make_record(1, "ex"));
  }
  // An engine journaling elsewhere (here: not at all) replays the jobs but
  // does not adopt the directory: the records stay for their owner.
  engine::Engine eng({.max_concurrent_jobs = 1});
  const engine::Engine::RecoveryReport report = eng.recover(dir.path);
  ASSERT_EQ(report.jobs.size(), 1u);
  eng.wait_all();
  EXPECT_EQ(report.jobs[0]->state(), engine::JobState::Succeeded);
  EXPECT_TRUE(util::fs::file_exists(dir.path + "/job-1.json"));
}

// A version-3 record written by a build that journaled the retired
// "incremental" flag (here: set to false, the from-scratch mode) replays to
// the same design as a fresh default run.
TEST(EngineJournal, RecoversV3RecordWithRetiredIncrementalFlag) {
  const TempDir dir;
  {
    const engine::Journal j(dir.path);
    j.write_job(make_record(4, "dct"));
  }
  const std::string path = dir.path + "/job-4.json";
  const std::optional<std::string> text = util::fs::read_file(path);
  ASSERT_TRUE(text.has_value());
  const std::optional<util::JsonValue> doc = util::json_parse(*text);
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->get_int("version", -1), 3);
  // Re-seal exactly as the journal does: crc32c over the canonical dump of
  // every other member.
  util::JsonValue::Object members;
  for (const auto& [key, value] : doc->as_object()) {
    if (key == "crc32c") continue;
    members.emplace_back(key, key == "request"
                                  ? request_with_incremental_flag(value, false)
                                  : value);
  }
  const std::string body =
      util::json_dump(util::JsonValue::make_object(members));
  members.emplace_back("crc32c", util::JsonValue::make_string(util::crc32c_hex(
                                     util::crc32c(body))));
  util::fs::write_file_atomic(
      path, util::json_dump(util::JsonValue::make_object(std::move(members))) +
                "\n");

  engine::Engine eng({.max_concurrent_jobs = 1});
  const engine::Engine::RecoveryReport report = eng.recover(dir.path);
  EXPECT_TRUE(report.errors.empty());
  ASSERT_EQ(report.jobs.size(), 1u);
  eng.wait_all();
  ASSERT_EQ(report.jobs[0]->state(), engine::JobState::Succeeded);
  const core::FlowResult fresh =
      core::run_flow(core::FlowKind::Ours, benchmarks::make_benchmark("dct"));
  EXPECT_TRUE(api::FlowResultV1::from_result("dct/ours", fresh)
                  .design_identical(api::FlowResultV1::from_result(
                      "dct/ours", *report.jobs[0]->result())));
}

TEST(EngineJournal, MissingDirectoryIsAnEmptyReplay) {
  engine::Engine eng({.max_concurrent_jobs = 1});
  const engine::Engine::RecoveryReport report =
      eng.recover("/nonexistent/hlts/journal");
  EXPECT_TRUE(report.jobs.empty());
  EXPECT_TRUE(report.errors.empty());
}

TEST(EngineJournal, SubmitRefusesTrialCacheWhenJournaling) {
  const TempDir dir;
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .journal_dir = dir.path,
                      .checkpoint_every = 1});
  engine::FlowRequest r = ours_request("ex", 1);
  r.params.trial_cache = true;
  EXPECT_THROW((void)eng.submit(std::move(r)), Error);
}

// --- kill-and-recover soak --------------------------------------------------

/// Forks a child that arms `spec` (a kill-mode failpoint), runs one
/// journaled job, and dies at the armed site; the parent then replays the
/// journal with Engine::recover and asserts the finished FlowResult is
/// bit-identical to the uninterrupted reference.
void kill_and_recover(const std::string& spec, const std::string& bench,
                      int threads) {
  SCOPED_TRACE(spec + " " + bench + " x" + std::to_string(threads));
  const TempDir dir;
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: never returns into gtest.  Exit codes: 137 = the armed kill
    // fired (expected), 3 = bad spec, 42 = the job finished before the
    // kill fired (the test would be vacuous).
    std::string error;
    if (!fp::configure(spec, &error)) _exit(3);
    {
      engine::Engine eng({.max_concurrent_jobs = 1,
                          .journal_dir = dir.path,
                          .checkpoint_every = 1});
      const engine::JobPtr job = eng.submit(ours_request(bench, threads));
      job->wait();
    }
    _exit(42);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137) << "kill failpoint did not fire";

  // The write-ahead record must have survived the crash.
  ASSERT_TRUE(util::fs::file_exists(dir.path + "/job-1.json"));

  engine::Engine eng({.max_concurrent_jobs = 1,
                      .journal_dir = dir.path,
                      .checkpoint_every = 1});
  const engine::Engine::RecoveryReport report = eng.recover(dir.path);
  ASSERT_EQ(report.jobs.size(), 1u);
  eng.wait_all();
  ASSERT_EQ(report.jobs[0]->state(), engine::JobState::Succeeded);
  expect_identical(core::run_flow(core::FlowKind::Ours,
                                  benchmarks::make_benchmark(bench),
                                  test_params(threads)),
                   *report.jobs[0]->result());
  EXPECT_TRUE(util::fs::list_files(dir.path).empty());
}

/// The soak grid the acceptance criterion names: >= 2 benchmarks x {1, 4}
/// trial threads per failpoint site.
void kill_and_recover_grid(const std::string& spec) {
  for (const char* bench : {"ex", "dct"}) {
    for (const int threads : {1, 4}) {
      kill_and_recover(spec, bench, threads);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// With checkpoint_every = 1 the atomic-write sites fire as: trigger 1 =
// the write-ahead job record, 2 = first checkpoint, 3 = second checkpoint
// ... so killing on trigger 3 dies mid-checkpoint with an earlier
// checkpoint already durable -- recovery must resume, not restart.
TEST(KillRecoverSoak, TornWriteMidCheckpoint) {
  kill_and_recover_grid("journal.write:kill:1:0:3");
}

TEST(KillRecoverSoak, CrashBetweenWriteAndCommit) {
  kill_and_recover_grid("journal.commit:kill:1:0:3");
}

TEST(KillRecoverSoak, CrashAtCheckpointBoundary) {
  kill_and_recover_grid("journal.checkpoint:kill:1:0:2");
}

TEST(KillRecoverSoak, CrashDuringJobRetirement) {
  // The job computed its full result but died before the done marker:
  // recovery re-runs it (from the last checkpoint) to the same bits.
  kill_and_recover_grid("journal.done:kill:1:0:1");
}

TEST(KillRecoverSoak, CrashBeforeAnyCheckpoint) {
  // Only the write-ahead record is durable: recovery restarts from
  // scratch and still converges to the identical result.
  kill_and_recover("journal.checkpoint:kill:1:0:1", "ex", 1);
}

// --- journal scrub (adversarial corruption corpus) --------------------------

/// Reads a journal file, applies `mutate` to its bytes, writes it back.
void damage_file(const std::string& path,
                 const std::function<std::string(std::string)>& mutate) {
  const std::optional<std::string> content = util::fs::read_file(path);
  ASSERT_TRUE(content.has_value()) << path;
  util::fs::write_file_atomic(path, mutate(*content));
}

/// The scrub finding for `file`, or nullptr.
const engine::Journal::ScrubFinding* finding_for(
    const engine::Journal::ScrubReport& report, const std::string& file) {
  for (const auto& f : report.findings) {
    if (f.file == file) return &f;
  }
  return nullptr;
}

void expect_status(const engine::Journal::ScrubReport& report,
                   const std::string& file, const std::string& status,
                   bool corrupt) {
  const engine::Journal::ScrubFinding* f = finding_for(report, file);
  ASSERT_NE(f, nullptr) << file << " missing from scrub report";
  EXPECT_EQ(f->status, status) << file << ": " << f->detail;
  EXPECT_EQ(f->corrupt, corrupt) << file;
}

TEST(Scrub, CleanJournalHasNoFindings) {
  const TempDir dir;
  const engine::Journal j(dir.path);
  j.write_job(make_record(1, "ex"));
  j.write_job(make_record(2, "dct"));

  const dfg::Dfg g = benchmarks::make_benchmark("ex");
  std::vector<core::Checkpoint> ckpts;
  core::FlowParams rec = test_params(1);
  rec.checkpoint_every = 1;
  rec.on_checkpoint = [&](const core::Checkpoint& c) { ckpts.push_back(c); };
  (void)core::run_flow(core::FlowKind::Ours, g, rec);
  ASSERT_FALSE(ckpts.empty());
  j.write_checkpoint(1, ckpts.front());

  // Zero false positives: every committed file verifies.
  const engine::Journal::ScrubReport report = engine::Engine::scrub(dir.path);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.files, 3);
  EXPECT_EQ(report.ok, 3);
  EXPECT_EQ(report.corrupt, 0);
  EXPECT_EQ(report.legacy, 0);
  for (const auto& f : report.findings) EXPECT_EQ(f.status, "ok") << f.file;

  // A missing directory is an empty clean report, not an error.
  EXPECT_TRUE(engine::Engine::scrub(dir.path + "/nonexistent").clean());
}

TEST(Scrub, DetectsEveryInjectedCorruption) {
  const TempDir dir;
  const engine::Journal j(dir.path);
  for (const std::uint64_t id : {1, 2, 3, 4, 9}) {
    j.write_job(make_record(id, "ex"));
  }
  const dfg::Dfg g = benchmarks::make_benchmark("ex");
  std::vector<core::Checkpoint> ckpts;
  core::FlowParams rec = test_params(1);
  rec.checkpoint_every = 1;
  rec.on_checkpoint = [&](const core::Checkpoint& c) { ckpts.push_back(c); };
  (void)core::run_flow(core::FlowKind::Ours, g, rec);
  ASSERT_FALSE(ckpts.empty());
  j.write_checkpoint(9, ckpts.front());

  // The corpus: one of each corruption the fault model can produce.
  damage_file(dir.path + "/job-1.json", [](std::string s) {
    return s.substr(0, s.size() / 2);  // torn write
  });
  damage_file(dir.path + "/job-2.json", [](std::string s) {
    const std::size_t at = s.find("\"name\":\"ex");
    EXPECT_NE(at, std::string::npos);
    s[at + 9] = 'y';  // bit-flip inside a value: still valid JSON
    return s;
  });
  damage_file(dir.path + "/job-3.json",
              [](std::string s) { return s + s; });  // duplicated record
  damage_file(dir.path + "/job-4.json",
              [](std::string) { return std::string(); });  // zero length
  util::fs::write_file_atomic(dir.path + "/job-7.json.tmp", "{\"trunc");
  util::fs::remove_file(dir.path + "/job-9.json");  // orphans the ckpt
  util::fs::write_file_atomic(dir.path + "/notes.txt", "operator scribble");

  const engine::Journal::ScrubReport report = engine::Engine::scrub(dir.path);
  expect_status(report, "job-1.json", "torn", true);
  expect_status(report, "job-2.json", "checksum_mismatch", true);
  expect_status(report, "job-3.json", "trailing_garbage", true);
  expect_status(report, "job-4.json", "zero_length", true);
  expect_status(report, "job-7.json.tmp", "temp_leftover", false);
  expect_status(report, "job-9.ckpt.json", "orphan_checkpoint", false);
  expect_status(report, "notes.txt", "unknown_file", false);
  EXPECT_EQ(report.corrupt, 4);
  EXPECT_EQ(report.orphans, 1);
  EXPECT_EQ(report.temp_leftovers, 1);
  EXPECT_EQ(report.unknown, 1);
  EXPECT_FALSE(report.clean());

  // The report is machine-readable and its counters survive the JSON trip.
  const util::JsonValue doc = reparse(report.to_json());
  EXPECT_EQ(doc.get_int("corrupt", -1), 4);
  EXPECT_FALSE(doc.get_bool("clean", true));
  const util::JsonValue* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  EXPECT_EQ(findings->as_array().size(), report.findings.size());
}

TEST(Scrub, RecoveryNeverReplaysCorruptRecords) {
  const TempDir dir;
  const engine::Journal j(dir.path);
  j.write_job(make_record(1, "ex"));
  j.write_job(make_record(2, "dct"));
  damage_file(dir.path + "/job-2.json", [](std::string s) {
    const std::size_t at = s.find("\"name\":");
    EXPECT_NE(at, std::string::npos);
    s[at + 8] = '#';  // silent value damage; only the CRC can catch it
    return s;
  });

  const engine::Journal::ScanResult scan = engine::Journal::scan(dir.path);
  ASSERT_EQ(scan.jobs.size(), 1u);
  EXPECT_EQ(scan.jobs[0].record.id, 1u);
  ASSERT_EQ(scan.errors.size(), 1u);
  EXPECT_NE(scan.errors[0].find("job-2.json"), std::string::npos);

  engine::Engine eng({.max_concurrent_jobs = 1});
  const engine::Engine::RecoveryReport report = eng.recover(dir.path);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0]->id(), 1u);
  eng.wait_all();
  EXPECT_EQ(report.jobs[0]->state(), engine::JobState::Succeeded);
  // The damaged record is evidence, not garbage: left in place.
  EXPECT_TRUE(util::fs::file_exists(dir.path + "/job-2.json"));
}

TEST(Scrub, LegacyV2RecordsStillReadable) {
  const TempDir dir;
  const engine::Journal j(dir.path);
  j.write_job(make_record(1, "ex"));
  // Rewrite the sealed v3 record as its pre-checksum v2 form: version
  // field back to 2, crc32c member dropped.
  damage_file(dir.path + "/job-1.json", [](std::string s) {
    std::optional<util::JsonValue> doc = util::json_parse(s);
    EXPECT_TRUE(doc.has_value());
    util::JsonValue::Object out;
    for (const auto& [key, value] : doc->as_object()) {
      if (key == "crc32c") continue;
      out.emplace_back(key, key == "version" ? util::JsonValue::make_int(2)
                                             : value);
    }
    return util::json_dump(util::JsonValue::make_object(std::move(out))) +
           "\n";
  });

  const engine::Journal::ScrubReport report = engine::Engine::scrub(dir.path);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.legacy, 1);
  expect_status(report, "job-1.json", "legacy_v2", false);

  // And it replays like any committed record.
  const engine::Journal::ScanResult scan = engine::Journal::scan(dir.path);
  EXPECT_TRUE(scan.errors.empty());
  ASSERT_EQ(scan.jobs.size(), 1u);
  EXPECT_EQ(scan.jobs[0].record.id, 1u);
  EXPECT_EQ(scan.jobs[0].record.name, "ex/ours");
}

TEST(Scrub, QuarantineMovesCorruptFilesAside) {
  const TempDir dir;
  const engine::Journal j(dir.path);
  j.write_job(make_record(1, "ex"));
  j.write_job(make_record(2, "ex"));
  damage_file(dir.path + "/job-2.json",
              [](std::string s) { return s.substr(0, s.size() / 3); });
  util::fs::write_file_atomic(dir.path + "/job-8.json.tmp", "{\"part");

  const engine::Journal::ScrubReport report =
      engine::Engine::scrub(dir.path, /*quarantine=*/true);
  EXPECT_EQ(report.corrupt, 1);
  const engine::Journal::ScrubFinding* torn = finding_for(report,
                                                          "job-2.json");
  ASSERT_NE(torn, nullptr);
  EXPECT_TRUE(torn->quarantined);
  EXPECT_FALSE(util::fs::file_exists(dir.path + "/job-2.json"));
  EXPECT_TRUE(util::fs::file_exists(dir.path + "/quarantine/job-2.json"));
  EXPECT_FALSE(util::fs::file_exists(dir.path + "/job-8.json.tmp"));

  // After quarantine the directory recovers with no errors at all.
  const engine::Journal::ScanResult scan = engine::Journal::scan(dir.path);
  EXPECT_TRUE(scan.errors.empty());
  ASSERT_EQ(scan.jobs.size(), 1u);
  EXPECT_EQ(scan.jobs[0].record.id, 1u);

  // Manual cleanup of the quarantine subdirectory (TempDir only sweeps
  // the top level).
  for (const std::string& name :
       util::fs::list_all_files(dir.path + "/quarantine")) {
    util::fs::remove_file(dir.path + "/quarantine/" + name);
  }
  ::rmdir((dir.path + "/quarantine").c_str());
}

// --- admission control ------------------------------------------------------

TEST(Overload, RejectPolicyFailsFastAtCapacity) {
  Gate gate;
  engine::JobOptions blocker;
  blocker.on_iteration = [&](const core::IterationRecord&) { gate.wait(); };
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .queue_capacity = 1,
                      .overload_policy = engine::OverloadPolicy::Reject});
  const engine::JobPtr running = eng.submit(ours_request("ex", 1), blocker);
  // Wait until the blocker has left the queue and is inside run_job.
  while (eng.health().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const engine::JobPtr queued = eng.submit(ours_request("ex", 1));
  const engine::JobPtr refused = eng.submit(ours_request("ex", 1));
  EXPECT_EQ(refused->state(), engine::JobState::Rejected);
  EXPECT_TRUE(refused->finished());
  EXPECT_NE(refused->error().find("capacity"), std::string::npos);
  EXPECT_EQ(eng.health().rejected, 1u);
  EXPECT_LE(eng.health().queue_depth, 1u);
  gate.release();
  eng.wait_all();
  EXPECT_EQ(running->state(), engine::JobState::Succeeded);
  EXPECT_EQ(queued->state(), engine::JobState::Succeeded);
}

TEST(Overload, ShedOldestEvictsExpiredDeadlinesFirst) {
  Gate gate;
  engine::JobOptions blocker;
  blocker.on_iteration = [&](const core::IterationRecord&) { gate.wait(); };
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .queue_capacity = 2,
                      .overload_policy = engine::OverloadPolicy::ShedOldest});
  const engine::JobPtr running = eng.submit(ours_request("ex", 1), blocker);
  while (eng.health().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Older job without a deadline, newer job with an already-tiny one: the
  // overflow shed must take the expired job, not the FIFO head.
  const engine::JobPtr durable = eng.submit(ours_request("ex", 1));
  engine::JobOptions perishable;
  perishable.queue_deadline = std::chrono::milliseconds(1);
  const engine::JobPtr expired = eng.submit(ours_request("ex", 1), perishable);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const engine::JobPtr newcomer = eng.submit(ours_request("ex", 1));
  EXPECT_EQ(expired->state(), engine::JobState::Rejected);
  EXPECT_NE(expired->error().find("deadline"), std::string::npos);
  EXPECT_EQ(eng.health().sheds, 1u);
  EXPECT_LE(eng.health().queue_depth, 2u);
  gate.release();
  eng.wait_all();
  EXPECT_EQ(running->state(), engine::JobState::Succeeded);
  EXPECT_EQ(durable->state(), engine::JobState::Succeeded);
  EXPECT_EQ(newcomer->state(), engine::JobState::Succeeded);
}

TEST(Overload, ShedOldestFallsBackToFifoOrder) {
  Gate gate;
  engine::JobOptions blocker;
  blocker.on_iteration = [&](const core::IterationRecord&) { gate.wait(); };
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .queue_capacity = 1,
                      .overload_policy = engine::OverloadPolicy::ShedOldest});
  const engine::JobPtr running = eng.submit(ours_request("ex", 1), blocker);
  while (eng.health().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const engine::JobPtr oldest = eng.submit(ours_request("ex", 1));
  const engine::JobPtr newest = eng.submit(ours_request("ex", 1));
  EXPECT_EQ(oldest->state(), engine::JobState::Rejected);
  EXPECT_NE(oldest->error().find("shed"), std::string::npos);
  gate.release();
  eng.wait_all();
  EXPECT_EQ(newest->state(), engine::JobState::Succeeded);
}

TEST(Overload, QueueNeverExceedsCapacityUnderSaturation) {
  Gate gate;
  engine::JobOptions blocker;
  blocker.on_iteration = [&](const core::IterationRecord&) { gate.wait(); };
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .queue_capacity = 3,
                      .overload_policy = engine::OverloadPolicy::ShedOldest});
  const engine::JobPtr running = eng.submit(ours_request("ex", 1), blocker);
  while (eng.health().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<engine::JobPtr> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(eng.submit(ours_request("ex", 1)));
    EXPECT_LE(eng.health().queue_depth, 3u) << "after submit " << i;
  }
  gate.release();
  eng.wait_all();
  std::size_t succeeded = 0;
  std::size_t shed = 0;
  for (const engine::JobPtr& job : jobs) {
    if (job->state() == engine::JobState::Succeeded) ++succeeded;
    if (job->state() == engine::JobState::Rejected) ++shed;
  }
  EXPECT_EQ(succeeded + shed, jobs.size());
  EXPECT_EQ(succeeded, 3u);  // exactly the survivors of a 3-slot queue
  EXPECT_EQ(eng.health().sheds, shed);
}

TEST(Overload, BlockPolicyWaitsForSpace) {
  Gate gate;
  engine::JobOptions blocker;
  blocker.on_iteration = [&](const core::IterationRecord&) { gate.wait(); };
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .queue_capacity = 1,
                      .overload_policy = engine::OverloadPolicy::Block});
  const engine::JobPtr running = eng.submit(ours_request("ex", 1), blocker);
  while (eng.health().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const engine::JobPtr queued = eng.submit(ours_request("ex", 1));

  std::atomic<bool> admitted{false};
  std::thread submitter([&] {
    const engine::JobPtr late = eng.submit(ours_request("ex", 1));
    admitted.store(true);
    late->wait();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load()) << "Block admitted past a full queue";
  gate.release();
  submitter.join();
  EXPECT_TRUE(admitted.load());
  eng.wait_all();
  EXPECT_EQ(queued->state(), engine::JobState::Succeeded);
}

TEST(Overload, PendingJobShedAtDispatchWhenDeadlineExpired) {
  Gate gate;
  engine::JobOptions blocker;
  blocker.on_iteration = [&](const core::IterationRecord&) { gate.wait(); };
  engine::Engine eng({.max_concurrent_jobs = 1});  // unbounded queue
  const engine::JobPtr running = eng.submit(ours_request("ex", 1), blocker);
  while (eng.health().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine::JobOptions perishable;
  perishable.queue_deadline = std::chrono::milliseconds(1);
  const engine::JobPtr stale = eng.submit(ours_request("ex", 1), perishable);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();
  eng.wait_all();
  EXPECT_EQ(stale->state(), engine::JobState::Rejected);
  EXPECT_NE(stale->error().find("deadline"), std::string::npos);
  EXPECT_EQ(running->state(), engine::JobState::Succeeded);
}

// --- option audits and environment knobs ------------------------------------

TEST(EngineAudit, RejectsUnservableConfigurations) {
  // capacity 0 + Block could never unblock.
  EXPECT_THROW(engine::Engine({.queue_capacity = 0,
                               .overload_policy =
                                   engine::OverloadPolicy::Block}),
               Error);
  // Journaling that never persists progress.
  EXPECT_THROW(engine::Engine({.journal_dir = "/tmp/hlts_nocadence",
                               .checkpoint_every = 0}),
               Error);
  EXPECT_THROW(engine::Engine({.checkpoint_every = -1}), Error);
  // capacity 0 is servable under Reject (every submit fails fast).
  engine::Engine ok({.max_concurrent_jobs = 1,
                     .queue_capacity = 0,
                     .overload_policy = engine::OverloadPolicy::Reject});
  const engine::JobPtr job = ok.submit(ours_request("ex", 1));
  EXPECT_EQ(job->state(), engine::JobState::Rejected);
}

TEST(EngineAudit, SynthesisRejectsNegativeCheckpointCadence) {
  const dfg::Dfg g = benchmarks::make_benchmark("ex");
  core::SynthesisParams p;
  p.num_threads = 1;
  p.checkpoint_every = -2;
  EXPECT_THROW((void)core::integrated_synthesis(g, p), Error);
}

TEST(EngineEnv, FromEnvParsesAndAudits) {
  const EnvGuard j("HLTS_JOURNAL_DIR");
  const EnvGuard q("HLTS_QUEUE_CAP");
  const EnvGuard m("HLTS_MEM_BUDGET");
  ::setenv("HLTS_JOURNAL_DIR", "/tmp/hlts_env_journal", 1);
  ::setenv("HLTS_QUEUE_CAP", "64", 1);
  ::setenv("HLTS_MEM_BUDGET", "1048576", 1);
  const engine::EngineOptions opts = engine::EngineOptions::from_env();
  EXPECT_EQ(opts.journal_dir, "/tmp/hlts_env_journal");
  EXPECT_EQ(opts.queue_capacity, 64u);
  EXPECT_EQ(opts.memory_budget_bytes, 1048576u);

  // Explicit fields in `base` win over the environment.
  engine::EngineOptions base;
  base.queue_capacity = 8;
  EXPECT_EQ(engine::EngineOptions::from_env(base).queue_capacity, 8u);

  // Negative and malformed values are input errors, not silent defaults.
  ::setenv("HLTS_MEM_BUDGET", "-5", 1);
  EXPECT_THROW((void)engine::EngineOptions::from_env(), Error);
  ::setenv("HLTS_MEM_BUDGET", "lots", 1);
  EXPECT_THROW((void)engine::EngineOptions::from_env(), Error);
  ::setenv("HLTS_MEM_BUDGET", "1", 1);
  ::setenv("HLTS_QUEUE_CAP", "-1", 1);
  EXPECT_THROW((void)engine::EngineOptions::from_env(), Error);
}

// --- health snapshot --------------------------------------------------------

TEST(Health, SnapshotExportsAsJson) {
  const TempDir dir;
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .journal_dir = dir.path,
                      .checkpoint_every = 1,
                      .queue_capacity = 16});
  const engine::JobPtr job = eng.submit(ours_request("ex", 1));
  eng.wait_all();
  ASSERT_EQ(job->state(), engine::JobState::Succeeded);
  const engine::EngineHealth h = eng.health();
  EXPECT_EQ(h.submitted, 1u);
  EXPECT_EQ(h.in_flight, 0u);
  EXPECT_TRUE(h.journaling);

  std::string error;
  const std::optional<util::JsonValue> doc = util::json_parse(h.to_json(),
                                                              &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->get_int("queue_depth", -1), 0);
  EXPECT_EQ(doc->get_int("queue_capacity", -1), 16);
  EXPECT_EQ(doc->get_int("submitted", -1), 1);
  EXPECT_EQ(doc->get_int("sheds", -1), 0);
  EXPECT_EQ(doc->get_int("rejected", -1), 0);
  EXPECT_EQ(doc->get_int("journal_lag", -1), 0);
  EXPECT_TRUE(doc->get_bool("journaling", false));

  // Unbounded capacity serializes as null, not a sentinel integer.
  engine::Engine unbounded({.max_concurrent_jobs = 1});
  const std::optional<util::JsonValue> doc2 =
      util::json_parse(unbounded.health().to_json(), &error);
  ASSERT_TRUE(doc2.has_value()) << error;
  const util::JsonValue* cap = doc2->find("queue_capacity");
  ASSERT_NE(cap, nullptr);
  EXPECT_TRUE(cap->is_null());
}

// --- journal lag (checkpoint write failures never affect the result) --------

TEST(JournalLag, CheckpointWriteFailuresDegradeDurabilityNotResults) {
  struct FailpointGuard {
    ~FailpointGuard() { fp::clear(); }
  } guard;
  const TempDir dir;
  // Every checkpoint persistence fails with a Transient error; the flow
  // must still complete with the exact uninterrupted result, and the
  // failures must be visible as journal lag.
  ASSERT_TRUE(fp::configure("journal.checkpoint:error:1:0:0"));
  engine::Engine eng({.max_concurrent_jobs = 1,
                      .max_retries = 0,
                      .journal_dir = dir.path,
                      .checkpoint_every = 1});
  const engine::JobPtr job = eng.submit(ours_request("ex", 1));
  eng.wait_all();
  fp::clear();
  ASSERT_EQ(job->state(), engine::JobState::Succeeded);
  EXPECT_GT(eng.health().journal_lag, 0u);
  expect_identical(core::run_flow(core::FlowKind::Ours,
                                  benchmarks::make_benchmark("ex"),
                                  test_params(1)),
                   *job->result());
}

}  // namespace
}  // namespace hlts
