// The shard worker: one forked process, one engine::Engine, one journal dir.
//
// run_worker() is the child side of a supervisor socketpair.  It owns a
// private Engine journaling into this shard's directory, speaks the
// NDJSON frames of serve/protocol.hpp, and never shares memory with the
// supervisor -- a SIGKILL at any instant loses nothing the journal has not
// already made durable.
//
// Protocol thread: reads supervisor frames (submit / health / adopt /
// quit).  Each accepted job gets a small waiter thread that blocks on the
// job and writes the result frame back (a write mutex serializes the
// socketpair); finished waiters are joined as new jobs arrive, so the
// thread count tracks in-flight jobs, not jobs served.  On `adopt` the
// worker replays a *dead peer's* journal directory through
// Engine::recover -- a one-shot replay (see
// engine.cpp): the jobs resume from their checkpoints, and the response
// lists the tags recovered so the supervisor can tell adopted requests
// from ones that died before their write-ahead record (those it
// resubmits).  On `quit` (or supervisor EOF) the worker stops reading,
// joins the waiters -- i.e. drains every in-flight job and flushes its
// result -- and returns.
#pragma once

#include <cstddef>
#include <string>

#include "engine/engine.hpp"

namespace hlts::serve {

struct WorkerConfig {
  int shard = 0;
  std::string journal_dir;  ///< this shard's private journal directory
  engine::EngineOptions engine{};  ///< journal_dir is overwritten
  std::size_t max_line_bytes = 4u << 20;
};

/// Runs the worker protocol loop on `fd` until quit/EOF; returns when the
/// engine has drained.  The caller (the forked child) then _exit()s.
void run_worker(int fd, const WorkerConfig& config);

}  // namespace hlts::serve
