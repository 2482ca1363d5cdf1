#include "serve/worker.hpp"

#include <atomic>
#include <chrono>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace hlts::serve {

namespace {

using util::JsonValue;

/// A failed-before-running submission still answers with a FlowResultV1 so
/// the supervisor/client sees a uniform result stream.
api::FlowResultV1 refusal(const std::string& name, const std::string& error) {
  api::FlowResultV1 r;
  r.name = name;
  r.state = "rejected";
  r.error = error;
  return r;
}

}  // namespace

void run_worker(int fd, const WorkerConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  engine::EngineOptions opts = config.engine;
  opts.journal_dir = config.journal_dir;
  engine::Engine engine(opts);

  std::mutex write_mutex;

  // One waiter thread per in-flight job.  A waiter flags `done` as its last
  // action, and deliver() joins and erases the flagged ones before it
  // starts the next, so a long-lived shard holds one thread (and stack) per
  // in-flight job rather than one per job it has ever served.  Only the
  // protocol thread touches the list; list nodes keep `done` at a stable
  // address for the waiter that sets it.
  struct Waiter {
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<Waiter> waiters;

  // In-flight jobs by supervisor tag, for the best-effort cancel op (the
  // losing side of a hedged request).  Entries are removed by the waiter
  // once the result frame is flushed.
  std::mutex inflight_mutex;
  std::map<std::uint64_t, engine::JobPtr> inflight;

  auto send = [&](const std::string& frame) {
    std::lock_guard<std::mutex> lock(write_mutex);
    try {
      util::net::write_all(fd, frame);
    } catch (const Error&) {
      // Supervisor gone; the protocol loop will see EOF and drain.
    }
  };

  // One waiter per job: blocks until the job finishes, then flushes its
  // result frame.  The job name carries the supervisor's tag.
  auto deliver = [&](const engine::JobPtr& job) {
    for (auto it = waiters.begin(); it != waiters.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = waiters.erase(it);
      } else {
        ++it;
      }
    }
    std::uint64_t tag = 0;
    if (const auto tagged = proto::split_tag(job->name())) tag = tagged->tag;
    if (tag != 0) {
      std::lock_guard<std::mutex> lock(inflight_mutex);
      inflight[tag] = job;
    }
    std::atomic<bool>& done = waiters.emplace_back().done;
    waiters.back().thread = std::thread([&send, &inflight_mutex, &inflight,
                                         &done, job, tag] {
      job->wait();
      api::FlowResultV1 result = engine::job_result_to_api(*job);
      if (const auto tagged = proto::split_tag(result.name)) {
        result.name = tagged->name;
      }
      send(proto::result_frame(tag, result));
      if (tag != 0) {
        std::lock_guard<std::mutex> lock(inflight_mutex);
        inflight.erase(tag);
      }
      done.store(true, std::memory_order_release);
    });
  };

  // A restarted worker first replays its own journal (re-journaling mode:
  // same directory, so checkpoints and done markers keep flowing), then
  // announces readiness with the recovered tags so a respawn-aware
  // supervisor can rejoin this shard and re-point those requests here.
  {
    std::vector<std::uint64_t> recovered;
    const engine::Engine::RecoveryReport report = engine.recover(config.journal_dir);
    recovered.reserve(report.jobs.size());
    for (const engine::JobPtr& job : report.jobs) {
      if (const auto tagged = proto::split_tag(job->name())) {
        recovered.push_back(tagged->tag);
      }
      deliver(job);
    }
    send(proto::ready_frame(recovered));
  }

  util::net::LineReader reader(fd, config.max_line_bytes);
  try {
    while (const auto line = reader.read_line()) {
      std::string parse_error;
      const auto doc = util::json_parse(*line, &parse_error);
      if (!doc || !doc->is_object()) continue;  // trusted link; skip noise
      const std::string op = doc->get_string("op");
      const std::uint64_t tag =
          static_cast<std::uint64_t>(doc->get_int("tag", 0));
      if (op == "quit") break;
      if (op == "health") {
        api::HealthV1 h = engine.health().to_api(config.shard);
        h.uptime_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        send(proto::health_frame(tag, h));
      } else if (op == "cancel") {
        engine::JobPtr job;
        {
          std::lock_guard<std::mutex> lock(inflight_mutex);
          const auto it = inflight.find(tag);
          if (it != inflight.end()) job = it->second;
        }
        // Best-effort: a queued job is cancelled outright, a running one
        // stops at its next iteration boundary.  No response frame -- the
        // job's own result frame (state "cancelled") closes the loop, and
        // the supervisor drops it as an orphan tag.
        if (job) job->cancel();
      } else if (op == "submit") {
        const JsonValue* request = doc->find("request");
        if (request == nullptr) {
          send(proto::result_frame(tag, refusal("", "submit: missing request")));
          continue;
        }
        try {
          api::FlowRequestV1 req = api::FlowRequestV1::from_json(*request);
          req.name = proto::embed_tag(tag, req.name);
          deliver(engine.submit(req));
        } catch (const Error& e) {
          send(proto::result_frame(
              tag, refusal(request->get_string("name"), e.what())));
        }
      } else if (op == "adopt") {
        // Replay a dead peer's journal.  One-shot mode (foreign directory):
        // recovered jobs resume from their checkpoints and complete here.
        const std::string dir = doc->get_string("dir");
        std::vector<std::uint64_t> adopted;
        try {
          const engine::Engine::RecoveryReport report = engine.recover(dir);
          adopted.reserve(report.jobs.size());
          for (const engine::JobPtr& job : report.jobs) {
            if (const auto tagged = proto::split_tag(job->name())) {
              adopted.push_back(tagged->tag);
            }
            deliver(job);
          }
        } catch (const Error&) {
          // Unreadable directory: adopted stays empty; the supervisor
          // resubmits every affected request from its own copy.
        }
        send(proto::adopted_frame(tag, adopted));
      }
    }
  } catch (const Error&) {
    // Oversized/poisoned frame on the trusted link: treat as EOF and drain.
  }

  // Drain: every accepted job runs to completion and its result frame is
  // flushed before the process exits (graceful shutdown loses nothing).
  for (Waiter& w : waiters) w.thread.join();
}

}  // namespace hlts::serve
