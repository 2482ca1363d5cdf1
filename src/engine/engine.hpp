// Asynchronous batch synthesis engine.
//
// The paper's evaluation (§5) is itself a batch workload -- four flows on
// four benchmarks -- and the ROADMAP north star is a service that
// synthesizes many designs concurrently.  The engine accepts batches of
// FlowRequest jobs (DFG or DSL source + FlowKind + FlowParams), runs them
// over a fixed set of job workers, and hands back Job handles with:
//
//   - per-iteration progress streaming (Algorithm-1 IterationRecords),
//   - cooperative cancellation, bounded to one Algorithm-1 iteration,
//   - a wall-clock timeout enforced at the same iteration granularity,
//   - a per-job trace/metrics snapshot (util::Trace spans + counters
//     covering frontend -> scheduling -> iterations -> ETPN rebuild ->
//     cost), exportable as JSON.
//
// Two-level threading model: the engine fans jobs out over
// `max_concurrent_jobs` job workers, and each job's Algorithm-1 trial
// evaluation still parallelizes internally over util::ThreadPool with
// `threads_per_job` threads.  The defaults divide
// util::ThreadPool::default_threads() (which honours HLTS_THREADS) between
// the two levels so a full batch never oversubscribes the machine.
// Precedence for a job's inner thread count: FlowParams::num_threads when
// positive > EngineOptions::threads_per_job > default_threads() / jobs.
//
// Determinism contract: a job's FlowResult is bit-identical to a direct
// `core::run_flow(kind, dfg, params)` call for every engine configuration
// -- PR 1 made synthesis results invariant under the trial thread count,
// and the engine changes nothing else about the computation.
//
// Failure contract: no exception crosses a thread boundary.  Parse errors
// (via frontend::compile_or_error) and synthesis errors become the job's
// error() string and a Failed state; sibling jobs are unaffected.  Failures
// are classified by hlts::ErrorKind: Transient failures (injected faults,
// bad_alloc) are retried up to EngineOptions::max_retries times with
// exponential backoff and deterministic jitter, and a job whose flow
// degraded to a Partial result keeps the best checkpoint across attempts;
// Input and Internal errors fail the job immediately (including non-
// std::exception throwables, which map to an Internal diagnostic).  An
// optional watchdog (EngineOptions::stall_deadline) flags running jobs
// whose iteration heartbeat has gone quiet.
//
// Durability contract (EngineOptions::journal_dir): every accepted job is
// written ahead to the journal before submit() returns, its Algorithm-1
// checkpoint is persisted every `checkpoint_every` committed mergers, and
// a completion marker retires it.  Engine::recover(dir) replays an
// interrupted journal: unfinished jobs are re-admitted (bypassing
// admission control -- they were admitted before the crash) and resume
// from their last checkpoint with a FlowResult bit-identical to the
// uninterrupted run.  Checkpoint/done write failures never affect the
// computation: they are absorbed as journal lag (EngineHealth).
//
// Overload contract (EngineOptions::queue_capacity): the pending queue
// never exceeds the configured capacity.  When full, submit() applies
// OverloadPolicy -- Block (wait for space), Reject (fail the new job with
// JobState::Rejected), or ShedOldest (evict pending jobs, expired
// JobOptions::queue_deadline first, then FIFO order, to make room).  A
// pending job whose queue_deadline expires is shed at dispatch time even
// when the queue never filled.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "core/flows.hpp"
#include "dfg/dfg.hpp"
#include "engine/codel.hpp"
#include "engine/journal.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace hlts::engine {

/// One unit of work: which flow to run on which design, with which knobs.
/// Provide either a pre-built DFG or DSL `source` the engine compiles
/// (a per-job parse failure fails only that job).
struct FlowRequest {
  std::string name{};  ///< report label; auto-generated when empty
  core::FlowKind kind = core::FlowKind::Ours;
  std::optional<dfg::Dfg> dfg{};
  std::string source{};  ///< compiled with compile_or_error when dfg is empty
  core::FlowParams params{};
};

enum class JobState {
  Pending,    ///< queued, not yet picked up by a worker
  Running,
  Succeeded,
  Failed,     ///< parse or synthesis error; see Job::error()
  Cancelled,  ///< Job::cancel() took effect
  TimedOut,   ///< the JobOptions::timeout deadline passed
  Rejected,   ///< refused or shed by admission control; see Job::error()
};

[[nodiscard]] const char* job_state_name(JobState state);

/// Per-job run options (the algorithmic knobs live in FlowRequest::params).
struct JobOptions {
  /// Called on the job's worker thread after every committed Algorithm-1
  /// merger.  Must be thread-safe against the submitting thread.
  std::function<void(const core::IterationRecord&)> on_iteration = nullptr;
  /// Wall-clock budget measured from the moment the job starts running;
  /// zero means unlimited.  Enforced at Algorithm-1 iteration boundaries
  /// (the same cooperative hook cancellation uses).
  std::chrono::milliseconds timeout{0};
  /// Freshness budget measured from submission: a job still *pending* past
  /// this deadline is shed (JobState::Rejected) instead of run -- checked
  /// when the queue overflows under OverloadPolicy::ShedOldest and again
  /// when a worker picks the job up.  Zero means the job never expires.
  /// A job that started running is never shed by this deadline.
  std::chrono::milliseconds queue_deadline{0};
};

class Engine;

/// Handle to one submitted job.  All accessors are thread-safe; the
/// result/error/trace accessors require finished() (they fail a contract
/// check otherwise, since the fields are still being written).
class Job {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] core::FlowKind kind() const { return request_.kind; }
  /// Engine-assigned id; also the job's journal filename key.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  [[nodiscard]] JobState state() const;
  [[nodiscard]] bool finished() const;

  /// Requests cooperative cancellation: a pending job never starts, a
  /// running Algorithm-1 flow stops within one iteration.  Idempotent;
  /// cancelling a finished job is a no-op.
  void cancel();

  /// Blocks until the job reaches a terminal state.
  void wait() const;
  /// Bounded wait; true when the job finished within `timeout`.
  [[nodiscard]] bool wait_for(std::chrono::milliseconds timeout) const;

  /// The synthesized design.  Engaged for Succeeded jobs; a Cancelled or
  /// TimedOut Algorithm-1 job keeps the partial (but fully consistent)
  /// design it had committed so far, when it got far enough to have one.
  [[nodiscard]] const std::optional<core::FlowResult>& result() const;
  /// Diagnostic for Failed jobs ("" otherwise).
  [[nodiscard]] const std::string& error() const;
  /// Spans + counters recorded while the job ran.
  [[nodiscard]] const util::TraceSnapshot& trace() const;
  /// Wall-clock duration of the run (0 for jobs cancelled while pending).
  [[nodiscard]] double wall_ms() const;

  /// Snapshot of the streamed iteration records; callable at any time.
  [[nodiscard]] std::vector<core::IterationRecord> progress() const;

  /// Times the engine has started (or restarted) this job; a value above 1
  /// means Transient failures were retried.  Callable at any time.
  [[nodiscard]] int attempts() const {
    return attempts_.load(std::memory_order_relaxed);
  }
  /// True once the watchdog flagged this job's iteration heartbeat as
  /// older than EngineOptions::stall_deadline.  Sticky; callable at any
  /// time.
  [[nodiscard]] bool stalled() const {
    return stalled_.load(std::memory_order_relaxed);
  }

 private:
  friend class Engine;
  Job(FlowRequest request, JobOptions options, std::string name);

  void finish(JobState state);

  FlowRequest request_;
  JobOptions options_;
  std::string name_;
  std::uint64_t id_ = 0;
  /// steady_clock nanoseconds of submission; queue_deadline counts from it.
  std::int64_t enqueue_ns_ = 0;
  /// Raw journal checkpoint for a recovered job; decoded against the
  /// compiled DFG by the worker (a corrupt document demotes the job to a
  /// from-scratch restart).
  std::optional<util::JsonValue> resume_raw_;
  /// True when this job's record lives in the owning engine's journal
  /// directory -- checkpoints are persisted and a done marker retires it.
  bool journaled_ = false;
  /// True for jobs re-admitted by Engine::recover(): they bypassed
  /// admission control once and the CoDel controller must not shed them --
  /// durable work is never lost to overload.
  bool recovered_ = false;

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  JobState state_ = JobState::Pending;
  std::atomic<bool> cancel_{false};
  std::atomic<bool> timed_out_{false};
  std::atomic<int> attempts_{0};
  std::atomic<bool> stalled_{false};
  /// steady_clock nanoseconds of the last sign of life (attempt start or
  /// committed iteration); 0 until the job first runs.
  std::atomic<std::int64_t> heartbeat_ns_{0};
  std::optional<core::FlowResult> result_;
  std::string error_;
  util::TraceSnapshot trace_;
  double wall_ms_ = 0;
  std::vector<core::IterationRecord> progress_;
};

using JobPtr = std::shared_ptr<Job>;

/// What submit() does when the pending queue is at capacity.
enum class OverloadPolicy {
  Block,      ///< wait until a worker frees a slot (needs capacity >= 1)
  Reject,     ///< fail the new job immediately with JobState::Rejected
  ShedOldest, ///< evict pending jobs (expired deadlines first, then FIFO)
};

[[nodiscard]] const char* overload_policy_name(OverloadPolicy policy);

struct EngineOptions {
  /// Jobs running concurrently; 0 = min(util::ThreadPool::default_threads(),
  /// 4).  Further submissions queue in FIFO order.
  int max_concurrent_jobs = 0;
  /// Inner trial-evaluation threads given to each job whose
  /// FlowParams::num_threads is 0 (auto); 0 = default_threads() divided by
  /// the job workers, never below 1 -- i.e. a loaded engine uses about
  /// default_threads() threads in total across both levels.
  int threads_per_job = 0;
  /// Extra runs granted to a job that fails with a Transient error
  /// (ErrorKind::Transient: injected fault, bad_alloc) or degrades to a
  /// Partial result mid-flow.  0 disables retries.
  int max_retries = 2;
  /// Base delay before a retry; doubles per attempt, plus a deterministic
  /// jitter derived from the job name so a batch of retries de-clusters
  /// the same way on every run.
  std::chrono::milliseconds retry_backoff{25};
  /// Watchdog deadline: a Running job whose last heartbeat (attempt start
  /// or committed iteration) is older than this is flagged via
  /// Job::stalled() and the "jobs.stall_flagged" metrics counter.  The
  /// job is not killed -- Algorithm-1 iterations vary widely in length, so
  /// the flag is a diagnostic, not an abort.  0 disables the watchdog
  /// thread entirely.
  std::chrono::milliseconds stall_deadline{0};

  // --- durability ----------------------------------------------------------
  /// Journal directory; empty disables journaling.  When set, submit()
  /// writes the job ahead, workers persist checkpoints at the cadence
  /// below, and Engine::recover() can replay the directory after a crash.
  std::string journal_dir{};
  /// Checkpoint cadence in committed Algorithm-1 mergers, applied to
  /// journaled jobs whose FlowParams::checkpoint_every is 0.  Must be >= 1
  /// when journaling is enabled (a cadence of 0 would journal admission
  /// but never persist progress -- the constructor rejects it).
  int checkpoint_every = 25;

  // --- overload ------------------------------------------------------------
  /// Upper bound on *pending* jobs (running jobs have left the queue).
  /// The default is effectively unbounded.  A capacity of 0 admits work
  /// only via Reject/ShedOldest semantics and is rejected with Block,
  /// which could never unblock.
  std::size_t queue_capacity = static_cast<std::size_t>(-1);
  OverloadPolicy overload_policy = OverloadPolicy::Block;
  /// Default FlowParams::memory_budget_bytes for jobs that do not set one:
  /// the Algorithm-1 loop stops before an iteration whose trial working
  /// set would exceed the budget and returns the design committed so far
  /// as a Partial result (enforced at iteration boundaries, no OOM kill).
  /// 0 = unlimited.
  std::size_t memory_budget_bytes = 0;
  /// CoDel-style adaptive shedding at dispatch (engine/codel.hpp): when
  /// target_ms > 0, a pending job whose dispatch-time sojourn has stayed
  /// above the target for a full interval is shed (JobState::Rejected,
  /// "sheds" counter), at a rate that ramps with persistence and returns
  /// to zero as sojourns recover.  Recovered (journal-replayed) jobs are
  /// exempt -- durable work is never shed.  Default off.
  CoDelConfig codel{};

  /// Applies the environment knobs on top of `base`: HLTS_JOURNAL_DIR
  /// (journal_dir), HLTS_QUEUE_CAP (queue_capacity, >= 0), HLTS_MEM_BUDGET
  /// (memory_budget_bytes, >= 0), HLTS_CODEL_TARGET_MS /
  /// HLTS_CODEL_INTERVAL_MS (codel).  Explicitly set fields in `base` win
  /// over the environment.  Malformed or negative values throw
  /// hlts::Error(ErrorKind::Input).  Deliberately opt-in (the Engine
  /// constructor does not read the environment) so tests stay hermetic.
  [[nodiscard]] static EngineOptions from_env(EngineOptions base);
  [[nodiscard]] static EngineOptions from_env() {
    return from_env(EngineOptions{});
  }
};

/// Point-in-time health snapshot for monitoring and load shedding
/// decisions; every field is also exportable as JSON.
struct EngineHealth {
  std::size_t queue_depth = 0;     ///< pending jobs (never > queue_capacity)
  std::size_t queue_capacity = 0;
  std::size_t in_flight = 0;       ///< accepted and not yet finished
  int running = 0;                 ///< jobs currently executing
  std::uint64_t submitted = 0;     ///< submit() calls (accepted + rejected)
  std::uint64_t retries = 0;       ///< transient-failure re-runs
  std::uint64_t stalls = 0;        ///< watchdog heartbeat flags
  std::uint64_t sheds = 0;         ///< pending jobs evicted (overflow/deadline)
  std::uint64_t rejected = 0;      ///< submissions refused under Reject
  std::uint64_t recovered = 0;     ///< jobs re-admitted by recover()
  std::uint64_t journal_lag = 0;   ///< swallowed checkpoint/done write failures
  bool journaling = false;

  [[nodiscard]] std::string to_json() const;
  /// The snapshot as the versioned wire DTO, tagged with a shard id (the
  /// serving layer's per-worker health unit).
  [[nodiscard]] api::HealthV1 to_api(int shard) const;
};

/// A finished job as the versioned wire DTO: state/error/wall-clock always,
/// plus the full bit-identity design block when the job produced one.
/// Requires job.finished().
[[nodiscard]] api::FlowResultV1 job_result_to_api(const Job& job);

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Drains: waits for every submitted job (cancel first for a fast exit),
  /// then joins all workers -- no thread outlives the engine.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] JobPtr submit(FlowRequest request, JobOptions options = {});
  /// Submission from the versioned wire DTO (the serving layer's entry
  /// point): the DTO's timeout/queue-deadline become the JobOptions.
  [[nodiscard]] JobPtr submit(const api::FlowRequestV1& request);
  [[nodiscard]] std::vector<JobPtr> submit_batch(
      std::vector<FlowRequest> requests, const JobOptions& options = {});

  /// Blocks until every job submitted so far is finished.
  void wait_all();

  /// Replays an interrupted journal directory: completes cleanups, sweeps
  /// orphans, and re-admits every unfinished job -- resuming from its last
  /// persisted checkpoint when one exists.  Re-admission bypasses
  /// admission control (the jobs were admitted before the crash) and
  /// preserves the original job ids, so an engine journaling into the same
  /// directory keeps writing the same files.  `errors` lists skipped
  /// malformed files; a missing directory is an empty (not error) replay.
  struct RecoveryReport {
    std::vector<JobPtr> jobs;
    std::vector<std::string> errors;
  };
  [[nodiscard]] RecoveryReport recover(const std::string& dir);

  /// Integrity audit of a journal directory without replaying anything:
  /// classifies every file, CRC-verifies committed documents, and (with
  /// `quarantine`) moves corrupt files and temp leftovers into
  /// `<dir>/quarantine/` so a subsequent recover() sees only trustworthy
  /// state.  Static because it must be usable on a dead engine's directory
  /// (the hlts_fsck CLI, the chaos grid's post-cell audit).
  [[nodiscard]] static Journal::ScrubReport scrub(const std::string& dir,
                                                  bool quarantine = false);

  [[nodiscard]] int max_concurrent_jobs() const { return num_workers_; }
  [[nodiscard]] int threads_per_job() const { return threads_per_job_; }

  /// Engine-level metrics: job-state and journal counters.  A job's own
  /// time is in Job::wall_ms() and its trace, so the engine-level snapshot
  /// does not grow with the number of jobs served.
  [[nodiscard]] util::TraceSnapshot metrics() const;

  /// Current health snapshot (queue depth, in-flight, shed/retry/stall/
  /// journal-lag counters).  Thread-safe, callable at any time.
  [[nodiscard]] EngineHealth health() const;

 private:
  void worker_loop();
  void run_job(const JobPtr& job);
  void watchdog_loop();
  /// Marks a never-run job terminal (Rejected/shed) with a diagnostic.
  void finish_rejected(const JobPtr& job, const std::string& why,
                       const char* counter);
  /// Writes the job's done marker (journaled jobs only); a failing write
  /// is absorbed as journal lag, never propagated.
  void retire_journal(const JobPtr& job, const char* state);
  /// Evicts pending jobs until the queue has room for one more entry:
  /// expired queue_deadline jobs first, then FIFO order.  Caller holds
  /// queue_mutex_; evicted jobs are returned for finishing outside it.
  std::vector<JobPtr> shed_for_space();
  /// True when the job sat pending past its queue_deadline.
  static bool queue_deadline_expired(const JobPtr& job, std::int64_t now);

  int num_workers_ = 1;
  int threads_per_job_ = 1;
  EngineOptions options_;  ///< retry/watchdog knobs (thread counts resolved above)
  std::optional<Journal> journal_;  ///< engaged when journal_dir is set

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;   // workers wait for work / stop
  std::condition_variable drain_cv_;   // wait_all waits for in-flight == 0
  std::condition_variable watchdog_cv_;  // watchdog sleeps, woken on stop
  std::condition_variable space_cv_;   // Block-policy submitters wait for room
  std::deque<JobPtr> queue_;
  std::size_t in_flight_ = 0;  ///< submitted and not yet finished
  std::uint64_t next_id_ = 0;
  bool stop_ = false;

  mutable std::mutex running_mutex_;
  std::vector<JobPtr> running_;  ///< jobs currently inside run_job()

  /// Adaptive dispatch-time shedding; its own mutex so the controller's
  /// state machine is serialized across workers without holding
  /// queue_mutex_ through finish_rejected.
  std::mutex codel_mutex_;
  CoDelController codel_{CoDelConfig{}};

  // Health counters (lock-free so health() never contends with workers).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> recovered_{0};
  std::atomic<std::uint64_t> journal_lag_{0};

  util::Trace trace_;  ///< engine-level spans/counters (thread-safe)
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace hlts::engine
