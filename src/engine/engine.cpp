#include "engine/engine.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "core/checkpoint.hpp"
#include "frontend/parser.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/knobs.hpp"
#include "util/thread_pool.hpp"

namespace hlts::engine {

namespace {

bool is_terminal(JobState state) {
  return state != JobState::Pending && state != JobState::Running;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exponential backoff with a deterministic jitter: hashing the job name
/// and attempt number (FNV-1a) de-clusters a batch of simultaneous retries
/// identically on every run, keeping failure tests reproducible.
std::chrono::milliseconds retry_delay(const std::string& job_name, int attempt,
                                      std::chrono::milliseconds base) {
  if (base.count() <= 0) return std::chrono::milliseconds{0};
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : job_name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= static_cast<std::uint64_t>(attempt);
  h *= 1099511628211ull;
  const std::int64_t exp = base.count() << std::min(attempt - 1, 6);
  const std::int64_t jitter =
      static_cast<std::int64_t>(h % static_cast<std::uint64_t>(base.count() + 1));
  return std::chrono::milliseconds(exp + jitter);
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::Pending: return "pending";
    case JobState::Running: return "running";
    case JobState::Succeeded: return "succeeded";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::TimedOut: return "timed_out";
    case JobState::Rejected: return "rejected";
  }
  return "?";
}

const char* overload_policy_name(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::Block: return "block";
    case OverloadPolicy::Reject: return "reject";
    case OverloadPolicy::ShedOldest: return "shed_oldest";
  }
  return "?";
}

EngineOptions EngineOptions::from_env(EngineOptions base) {
  // All three reads go through the audited knob registry (util/knobs):
  // malformed or negative values throw Error(Input), per the knobs' Throw
  // policy; explicitly set fields in `base` still win over the environment.
  if (base.journal_dir.empty()) {
    if (const std::optional<std::string> dir =
            util::knobs::read_string("HLTS_JOURNAL_DIR")) {
      base.journal_dir = *dir;
    }
  }
  if (base.queue_capacity == static_cast<std::size_t>(-1)) {
    if (const std::optional<std::size_t> v =
            util::knobs::read_size("HLTS_QUEUE_CAP")) {
      base.queue_capacity = *v;
    }
  }
  if (base.memory_budget_bytes == 0) {
    if (const std::optional<std::size_t> v =
            util::knobs::read_size("HLTS_MEM_BUDGET")) {
      base.memory_budget_bytes = *v;
    }
  }
  if (base.codel.target_ms == 0) {
    if (const std::optional<long long> v =
            util::knobs::read_int("HLTS_CODEL_TARGET_MS")) {
      base.codel.target_ms = static_cast<std::int64_t>(*v);
    }
  }
  if (base.codel.interval_ms == 100) {
    if (const std::optional<long long> v =
            util::knobs::read_int("HLTS_CODEL_INTERVAL_MS")) {
      base.codel.interval_ms = static_cast<std::int64_t>(*v);
    }
  }
  return base;
}

std::string EngineHealth::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("queue_depth").value(static_cast<std::int64_t>(queue_depth));
  if (queue_capacity == static_cast<std::size_t>(-1)) {
    w.key("queue_capacity").null_value();  // unbounded
  } else {
    w.key("queue_capacity").value(static_cast<std::int64_t>(queue_capacity));
  }
  w.key("in_flight").value(static_cast<std::int64_t>(in_flight));
  w.key("running").value(running);
  w.key("submitted").value(static_cast<std::int64_t>(submitted));
  w.key("retries").value(static_cast<std::int64_t>(retries));
  w.key("stalls").value(static_cast<std::int64_t>(stalls));
  w.key("sheds").value(static_cast<std::int64_t>(sheds));
  w.key("rejected").value(static_cast<std::int64_t>(rejected));
  w.key("recovered").value(static_cast<std::int64_t>(recovered));
  w.key("journal_lag").value(static_cast<std::int64_t>(journal_lag));
  w.key("journaling").value(journaling);
  w.end_object();
  return w.str();
}

api::HealthV1 EngineHealth::to_api(int shard) const {
  api::HealthV1 h;
  h.shard = shard;
  h.queue_depth = static_cast<std::int64_t>(queue_depth);
  h.queue_capacity = queue_capacity == static_cast<std::size_t>(-1)
                         ? -1
                         : static_cast<std::int64_t>(queue_capacity);
  h.in_flight = static_cast<std::int64_t>(in_flight);
  h.running = running;
  h.submitted = static_cast<std::int64_t>(submitted);
  h.retries = static_cast<std::int64_t>(retries);
  h.stalls = static_cast<std::int64_t>(stalls);
  h.sheds = static_cast<std::int64_t>(sheds);
  h.rejected = static_cast<std::int64_t>(rejected);
  h.recovered = static_cast<std::int64_t>(recovered);
  h.journal_lag = static_cast<std::int64_t>(journal_lag);
  h.journaling = journaling;
  return h;
}

api::FlowResultV1 job_result_to_api(const Job& job) {
  api::FlowResultV1 out;
  if (job.result().has_value()) {
    out = api::FlowResultV1::from_result(job.name(), *job.result());
  } else {
    out.name = job.name();
    out.kind = job.kind();
  }
  out.state = job_state_name(job.state());
  out.error = job.error();
  out.wall_ms = job.wall_ms();
  return out;
}

// --- Job -------------------------------------------------------------------

Job::Job(FlowRequest request, JobOptions options, std::string name)
    : request_(std::move(request)),
      options_(std::move(options)),
      name_(std::move(name)) {}

JobState Job::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

bool Job::finished() const { return is_terminal(state()); }

void Job::cancel() { cancel_.store(true, std::memory_order_relaxed); }

void Job::wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return is_terminal(state_); });
}

bool Job::wait_for(std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, timeout, [&] { return is_terminal(state_); });
}

// The post-completion accessors return references without holding the lock:
// every write to these fields happens-before the terminal state store that
// finished() observes, and nothing writes them afterwards.
const std::optional<core::FlowResult>& Job::result() const {
  HLTS_REQUIRE(finished(), "Job::result() before the job finished");
  return result_;
}

const std::string& Job::error() const {
  HLTS_REQUIRE(finished(), "Job::error() before the job finished");
  return error_;
}

const util::TraceSnapshot& Job::trace() const {
  HLTS_REQUIRE(finished(), "Job::trace() before the job finished");
  return trace_;
}

double Job::wall_ms() const {
  HLTS_REQUIRE(finished(), "Job::wall_ms() before the job finished");
  return wall_ms_;
}

std::vector<core::IterationRecord> Job::progress() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return progress_;
}

void Job::finish(JobState state) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_ = state;
  }
  cv_.notify_all();
}

// --- Engine ----------------------------------------------------------------

Engine::Engine(EngineOptions options) : options_(options) {
  // Option audit: configurations that could never make progress are
  // refused up front instead of deadlocking or silently journaling
  // nothing.  (Negative counts/budgets cannot be expressed -- the size_t
  // fields reject them at the from_env parsing layer.)
  HLTS_REQUIRE_INPUT(
      !(options_.queue_capacity == 0 &&
        options_.overload_policy == OverloadPolicy::Block),
      "engine options: queue_capacity 0 with the Block policy would block "
      "every submit forever");
  HLTS_REQUIRE_INPUT(options_.checkpoint_every >= 0,
                     "engine options: checkpoint_every must be >= 0");
  HLTS_REQUIRE_INPUT(
      options_.journal_dir.empty() || options_.checkpoint_every > 0,
      "engine options: journaling enabled with checkpoint cadence 0 would "
      "never persist progress");
  HLTS_REQUIRE_INPUT(options_.codel.target_ms >= 0 &&
                         options_.codel.interval_ms > 0,
                     "engine options: codel target must be >= 0 and the "
                     "interval positive");
  codel_ = CoDelController(options_.codel);
  if (!options_.journal_dir.empty()) {
    journal_.emplace(options_.journal_dir);
  }

  const int total = static_cast<int>(util::ThreadPool::default_threads());
  num_workers_ = options.max_concurrent_jobs > 0 ? options.max_concurrent_jobs
                                                 : std::min(total, 4);
  num_workers_ = std::max(num_workers_, 1);
  threads_per_job_ = options.threads_per_job > 0
                         ? options.threads_per_job
                         : std::max(1, total / num_workers_);
  options_.max_retries = std::max(0, options_.max_retries);
  workers_.reserve(static_cast<std::size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (options_.stall_deadline.count() > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  watchdog_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  if (watchdog_.joinable()) watchdog_.join();
}

bool Engine::queue_deadline_expired(const JobPtr& job, std::int64_t now) {
  const auto deadline = job->options_.queue_deadline;
  if (deadline.count() <= 0) return false;
  return now - job->enqueue_ns_ >
         std::chrono::duration_cast<std::chrono::nanoseconds>(deadline).count();
}

void Engine::retire_journal(const JobPtr& job, const char* state) {
  if (!journal_ || !job->journaled_) return;
  try {
    journal_->write_done(job->id_, state);
  } catch (const std::exception&) {
    // Durability lag, not a job failure: at worst the next recover()
    // re-runs a finished job, which is idempotent by the determinism
    // contract.
    journal_lag_.fetch_add(1, std::memory_order_relaxed);
    trace_.add_counter("journal.lag");
  }
}

void Engine::finish_rejected(const JobPtr& job, const std::string& why,
                             const char* counter) {
  retire_journal(job, "rejected");
  {
    std::lock_guard<std::mutex> lock(job->mutex_);
    job->error_ = why;
  }
  trace_.add_counter(counter);
  job->finish(JobState::Rejected);
}

std::vector<JobPtr> Engine::shed_for_space() {
  std::vector<JobPtr> shed;
  const std::int64_t now = now_ns();
  // Expired-deadline jobs go first: they would be shed at dispatch anyway,
  // so evicting them costs nothing the caller would ever have gotten.
  for (auto it = queue_.begin();
       it != queue_.end() && queue_.size() >= options_.queue_capacity;) {
    if (queue_deadline_expired(*it, now)) {
      shed.push_back(std::move(*it));
      it = queue_.erase(it);
      --in_flight_;
    } else {
      ++it;
    }
  }
  while (!queue_.empty() && queue_.size() >= options_.queue_capacity) {
    shed.push_back(std::move(queue_.front()));
    queue_.pop_front();
    --in_flight_;
  }
  return shed;
}

JobPtr Engine::submit(FlowRequest request, JobOptions options) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  JobPtr job;
  std::vector<JobPtr> shed;
  bool rejected = false;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    HLTS_REQUIRE(!stop_, "Engine::submit during shutdown");
    if (queue_.size() >= options_.queue_capacity) {
      switch (options_.overload_policy) {
        case OverloadPolicy::Block:
          space_cv_.wait(lock, [&] {
            return stop_ || queue_.size() < options_.queue_capacity;
          });
          HLTS_REQUIRE(!stop_, "Engine::submit during shutdown");
          break;
        case OverloadPolicy::Reject:
          rejected = true;
          break;
        case OverloadPolicy::ShedOldest:
          shed = shed_for_space();
          // Only a capacity of 0 leaves the queue still "full" here; the
          // incoming job itself is the one that cannot be admitted.
          rejected = queue_.size() >= options_.queue_capacity;
          break;
      }
    }
    const std::uint64_t id = ++next_id_;
    std::string name = std::move(request.name);
    if (name.empty()) {
      name = "job" + std::to_string(id) + "." + core::flow_name(request.kind);
    }
    job.reset(new Job(std::move(request), std::move(options), std::move(name)));
    job->id_ = id;
    job->enqueue_ns_ = now_ns();
    if (!rejected) {
      if (journal_) {
        // Write-ahead: a submission is either durable and queued or it
        // throws (Transient fs error) without side effects.  Holding
        // queue_mutex_ across the write serializes journal appends with id
        // assignment; submit is not the latency-critical path.
        JournalRecord rec;
        rec.id = id;
        rec.name = job->name_;
        rec.kind = job->request_.kind;
        rec.dfg = job->request_.dfg;
        rec.source = job->request_.source;
        rec.params = job->request_.params;
        rec.timeout_ms = job->options_.timeout.count();
        journal_->write_job(rec);
        job->journaled_ = true;
      }
      queue_.push_back(job);
      ++in_flight_;
    }
  }
  trace_.add_counter("jobs.submitted");
  for (const JobPtr& victim : shed) {
    sheds_.fetch_add(1, std::memory_order_relaxed);
    finish_rejected(victim,
                    queue_deadline_expired(victim, now_ns())
                        ? "shed: queue deadline exceeded under overload"
                        : "shed: queue overloaded (ShedOldest)",
                    "jobs.shed");
  }
  if (!shed.empty()) drain_cv_.notify_all();
  if (rejected) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    finish_rejected(job, "rejected: queue at capacity", "jobs.rejected");
    return job;
  }
  queue_cv_.notify_one();
  return job;
}

JobPtr Engine::submit(const api::FlowRequestV1& request) {
  FlowRequest req;
  req.name = request.name;
  req.kind = request.kind;
  req.dfg = request.dfg;
  req.source = request.source;
  req.params = request.params;
  JobOptions options;
  options.timeout = std::chrono::milliseconds(request.timeout_ms);
  options.queue_deadline = std::chrono::milliseconds(request.queue_deadline_ms);
  return submit(std::move(req), std::move(options));
}

std::vector<JobPtr> Engine::submit_batch(std::vector<FlowRequest> requests,
                                         const JobOptions& options) {
  std::vector<JobPtr> jobs;
  jobs.reserve(requests.size());
  for (FlowRequest& request : requests) {
    jobs.push_back(submit(std::move(request), options));
  }
  return jobs;
}

void Engine::wait_all() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

Engine::RecoveryReport Engine::recover(const std::string& dir) {
  RecoveryReport report;
  Journal::ScanResult scan = Journal::scan(dir);
  report.errors = std::move(scan.errors);
  // Re-journaling (checkpoints, done markers) continues only when this
  // engine journals into the *same* directory -- then the on-disk record
  // the job resumes from is also the one its new checkpoints update.
  // Otherwise the replay is one-shot: the job runs, but the old directory
  // keeps its record (at-least-once semantics on a later recover).
  const bool rejournal = journal_ && options_.journal_dir == dir;
  for (Journal::Recovered& rec : scan.jobs) {
    JobPtr job;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      HLTS_REQUIRE(!stop_, "Engine::recover during shutdown");
      next_id_ = std::max(next_id_, rec.record.id);
      FlowRequest request;
      request.name = rec.record.name;
      request.kind = rec.record.kind;
      request.dfg = std::move(rec.record.dfg);
      request.source = std::move(rec.record.source);
      request.params = rec.record.params;
      JobOptions options;
      options.timeout = std::chrono::milliseconds(rec.record.timeout_ms);
      job.reset(new Job(std::move(request), std::move(options),
                        std::move(rec.record.name)));
      job->id_ = rec.record.id;
      job->enqueue_ns_ = now_ns();
      job->journaled_ = rejournal;
      job->recovered_ = true;
      job->resume_raw_ = std::move(rec.checkpoint);
      // Deliberately bypasses capacity/overload admission: these jobs were
      // admitted (and journaled) before the crash; recovery must not shed
      // durable work.
      queue_.push_back(job);
      ++in_flight_;
    }
    recovered_.fetch_add(1, std::memory_order_relaxed);
    trace_.add_counter("jobs.recovered");
    queue_cv_.notify_one();
    report.jobs.push_back(std::move(job));
  }
  return report;
}

Journal::ScrubReport Engine::scrub(const std::string& dir, bool quarantine) {
  return Journal::scrub(dir, quarantine);
}

util::TraceSnapshot Engine::metrics() const { return trace_.snapshot(); }

EngineHealth Engine::health() const {
  EngineHealth h;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    h.queue_depth = queue_.size();
    h.in_flight = in_flight_;
  }
  {
    std::lock_guard<std::mutex> lock(running_mutex_);
    h.running = static_cast<int>(running_.size());
  }
  h.queue_capacity = options_.queue_capacity;
  h.submitted = submitted_.load(std::memory_order_relaxed);
  h.retries = retries_.load(std::memory_order_relaxed);
  h.stalls = stalls_.load(std::memory_order_relaxed);
  h.sheds = sheds_.load(std::memory_order_relaxed);
  h.rejected = rejected_.load(std::memory_order_relaxed);
  h.recovered = recovered_.load(std::memory_order_relaxed);
  h.journal_lag = journal_lag_.load(std::memory_order_relaxed);
  h.journaling = journal_.has_value();
  return h;
}

void Engine::worker_loop() {
  for (;;) {
    JobPtr job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and queue drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    space_cv_.notify_one();  // a Block-policy submitter may take the slot
    const std::int64_t dispatch_ns = now_ns();
    bool codel_shed = false;
    if (codel_.enabled()) {
      // CoDel controller: feed the dispatch-time sojourn of every head job
      // (recovered ones too -- they measure queueing delay like any other)
      // but never actually shed durable recovered work.
      const std::int64_t sojourn_ms =
          (dispatch_ns - job->enqueue_ns_) / 1'000'000;
      std::lock_guard<std::mutex> lock(codel_mutex_);
      codel_shed = codel_.should_drop(sojourn_ms, dispatch_ns / 1'000'000) &&
                   !job->recovered_;
    }
    if (queue_deadline_expired(job, dispatch_ns)) {
      // Deadline-aware shedding at dispatch: the caller wanted freshness,
      // not a stale answer computed long after they stopped waiting.
      sheds_.fetch_add(1, std::memory_order_relaxed);
      finish_rejected(job, "shed: queue deadline exceeded", "jobs.shed");
    } else if (codel_shed) {
      sheds_.fetch_add(1, std::memory_order_relaxed);
      finish_rejected(job, "shed: codel sojourn above target", "jobs.shed");
    } else {
      run_job(job);
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --in_flight_;
    }
    drain_cv_.notify_all();
  }
}

void Engine::run_job(const JobPtr& job) {
  if (job->cancel_.load(std::memory_order_relaxed)) {
    retire_journal(job, "cancelled");
    trace_.add_counter("jobs.cancelled");
    job->finish(JobState::Cancelled);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(job->mutex_);
    job->state_ = JobState::Running;
  }
  {
    std::lock_guard<std::mutex> lock(running_mutex_);
    running_.push_back(job);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const bool has_deadline = job->options_.timeout.count() > 0;
  const auto deadline = t0 + job->options_.timeout;

  // The job's own trace, installed for this worker thread: every
  // instrumented phase the flow passes through records into it.
  util::Trace trace;
  util::Trace::Scope scope(&trace);

  // Attempt loop: Transient failures (ErrorKind::Transient exceptions and
  // flows that degraded to a Partial checkpoint) are retried with backoff
  // up to options_.max_retries extra times; the best checkpoint (most
  // committed iterations) survives across attempts.  Input/Internal errors
  // fail the job on the spot.
  std::optional<core::FlowResult> result;
  std::string error;
  bool error_transient = false;
  for (int attempt = 1;; ++attempt) {
    job->attempts_.store(attempt, std::memory_order_relaxed);
    job->heartbeat_ns_.store(now_ns(), std::memory_order_relaxed);

    std::optional<core::FlowResult> attempt_result;
    std::string attempt_error;
    bool transient = false;
    try {
      HLTS_FAILPOINT("engine.worker");
      const dfg::Dfg* g = nullptr;
      std::optional<dfg::Dfg> compiled;
      std::optional<core::Checkpoint> resume;  // outlives run_flow below
      if (job->request_.dfg) {
        g = &*job->request_.dfg;
      } else {
        frontend::CompileResult cr =
            frontend::compile_or_error(job->request_.source);
        if (!cr) {
          attempt_error = cr.error.message;  // malformed input: never retried
        } else {
          compiled = std::move(cr.dfg);
          g = &*compiled;
        }
      }
      if (g != nullptr) {
        core::FlowParams params = job->request_.params;
        if (params.num_threads == 0) params.num_threads = threads_per_job_;
        if (params.memory_budget_bytes == 0) {
          params.memory_budget_bytes = options_.memory_budget_bytes;
        }
        params.cancel = &job->cancel_;
        // Recovered job: decode the journal checkpoint against the (now
        // available) graph and resume from it.  A corrupt or incompatible
        // document demotes the job to a from-scratch restart -- the
        // checkpoint buys restart latency, never correctness.
        if (job->resume_raw_) {
          try {
            resume = core::checkpoint_from_json(*job->resume_raw_, *g);
          } catch (const Error&) {
            trace_.add_counter("journal.checkpoint_invalid");
            job->resume_raw_.reset();
          }
        }
        if (resume) params.resume_from = &*resume;
        if (journal_ && job->journaled_) {
          if (params.checkpoint_every == 0) {
            params.checkpoint_every = options_.checkpoint_every;
          }
          // chained_ckpt is local to this block but the hook runs later,
          // inside run_flow -- capture it by value, not by reference.
          const auto chained_ckpt = params.on_checkpoint;
          params.on_checkpoint = [&, chained_ckpt](const core::Checkpoint& c) {
            try {
              journal_->write_checkpoint(job->id_, c);
            } catch (const std::exception& e) {
              // A failing disk must not fail (or alter) the computation:
              // Transient write errors degrade durability, visible as
              // journal lag.  Anything else is a real bug -- rethrow.
              if (classify_exception(e) != ErrorKind::Transient) throw;
              journal_lag_.fetch_add(1, std::memory_order_relaxed);
              trace_.add_counter("journal.lag");
            }
            if (chained_ckpt) chained_ckpt(c);
          };
        }
        // Chain rather than replace a hook the caller put in the request.
        const auto chained = params.on_iteration;
        params.on_iteration = [&](const core::IterationRecord& rec) {
          job->heartbeat_ns_.store(now_ns(), std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> lock(job->mutex_);
            job->progress_.push_back(rec);
          }
          if (job->options_.on_iteration) job->options_.on_iteration(rec);
          if (chained) chained(rec);
          if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
            job->timed_out_.store(true, std::memory_order_relaxed);
            job->cancel_.store(true, std::memory_order_relaxed);
          }
        };
        attempt_result = core::run_flow(job->request_.kind, *g, params);
      }
    } catch (const std::exception& e) {
      // Nothing may cross the thread boundary: synthesis contract
      // violations become this job's diagnostic, siblings keep running.
      attempt_error = e.what();
      transient = classify_exception(e) == ErrorKind::Transient;
    } catch (...) {
      // A non-std::exception throwable (a throw of an int, a foreign
      // library type) would previously have escaped the worker and
      // terminated the process.  Map it to an Internal-style failure:
      // never retried, fails this job only.
      attempt_error =
          "non-standard exception escaped the flow (treated as internal "
          "error)";
      transient = false;
    }

    if (attempt_result) {
      error.clear();
      error_transient = false;
      const bool degraded =
          attempt_result->completeness == core::Completeness::Partial &&
          attempt_result->stop_reason.rfind("degraded", 0) == 0;
      if (!result || attempt_result->iterations >= result->iterations) {
        result = std::move(attempt_result);
      }
      if (!degraded) break;  // Full, or a deliberate Partial (cancel/budget)
      transient = true;      // an absorbed fault cut the run short: retry
      attempt_error = result->stop_reason;
    } else if (!attempt_error.empty()) {
      error = attempt_error;
      error_transient = transient;
    } else {
      break;  // defensive: no result and no diagnostic
    }

    if (!transient || attempt > options_.max_retries ||
        job->cancel_.load(std::memory_order_relaxed)) {
      break;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    trace_.add_counter("jobs.retries");
    std::this_thread::sleep_for(
        retry_delay(job->name_, attempt, options_.retry_backoff));
  }
  // A best-effort checkpoint beats a transient diagnostic; an Input or
  // Internal error still fails the job even when an earlier attempt left a
  // partial result behind (a possibly broken invariant must fail loudly).
  if (result && error_transient) {
    error.clear();
    error_transient = false;
  }
  if (!error.empty()) result.reset();

  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  JobState final_state;
  if (!error.empty()) {
    final_state = JobState::Failed;
  } else if (job->timed_out_.load(std::memory_order_relaxed)) {
    final_state = JobState::TimedOut;
  } else if (job->cancel_.load(std::memory_order_relaxed)) {
    final_state = JobState::Cancelled;
  } else {
    final_state = JobState::Succeeded;
  }

  {
    std::lock_guard<std::mutex> lock(job->mutex_);
    job->result_ = std::move(result);
    job->error_ = std::move(error);
    job->trace_ = trace.snapshot();
    job->wall_ms_ = wall_ms;
  }
  {
    std::lock_guard<std::mutex> lock(running_mutex_);
    running_.erase(std::find(running_.begin(), running_.end(), job));
  }
  retire_journal(job, job_state_name(final_state));
  trace_.add_counter(std::string("jobs.") + job_state_name(final_state));
  job->finish(final_state);
}

void Engine::watchdog_loop() {
  const auto deadline_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               options_.stall_deadline)
                               .count();
  const auto period = std::max(options_.stall_deadline / 4,
                               std::chrono::milliseconds{5});
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (!stop_) {
    watchdog_cv_.wait_for(lock, period);
    if (stop_) break;
    std::vector<JobPtr> running;
    {
      std::lock_guard<std::mutex> rlock(running_mutex_);
      running = running_;
    }
    const std::int64_t now = now_ns();
    for (const JobPtr& job : running) {
      const std::int64_t hb = job->heartbeat_ns_.load(std::memory_order_relaxed);
      if (hb != 0 && now - hb > deadline_ns &&
          !job->stalled_.exchange(true, std::memory_order_relaxed)) {
        stalls_.fetch_add(1, std::memory_order_relaxed);
        trace_.add_counter("jobs.stall_flagged");
      }
    }
  }
}

}  // namespace hlts::engine
