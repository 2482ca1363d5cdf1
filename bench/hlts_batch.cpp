// Batch driver for the paper's full evaluation grid: the four benchmarks of
// §5 (Ex, DCT, Diffeq, EWF) x the four synthesis flows, run concurrently
// through engine::Engine and written out as one machine-readable JSON
// report (per-job results, per-job trace spans/counters, engine metrics).
//
//   hlts_batch [--jobs N] [--threads N] [--bits N] [--out FILE]
//              [--verify-serial] [--inject SPEC]
//              [--journal-dir DIR] [--checkpoint-every N] [--kill-after N]
//              [--recover] [--queue-cap N] [--policy block|reject|shed]
//              [--atpg-backend timeframe|sat|hybrid] [--dump-cnf DIR]
//
// --jobs / --threads control the engine's two-level split (0 = auto);
// --verify-serial re-runs every job through a direct core::run_flow call
// and checks the engine result is bit-identical (exit 1 on any mismatch).
//
// --atpg-backend enables a post-synthesis testability evaluation: every
// job that completed Full is elaborated to gates and run through ATPG
// under the named deterministic backend (atpg/atpg.hpp documents the
// modes); per-job coverage/efficiency/TG-time land in the report's "atpg"
// block.  --dump-cnf DIR makes the SAT backend write each target's CNF as
// DIMACS (with a comment-line variable map) into DIR.  Both are read from
// this invocation's command line, also under --recover: the journal
// carries synthesis parameters only.
//
// --inject SPEC is the fault-injection soak: SPEC is the HLTS_FAILPOINTS
// grammar (site:mode:probability:seed[:param], comma-separated; see
// util/failpoint.hpp).  Faults are injected across the whole grid; the run
// must not crash or hang, every job must reach a terminal state, and with
// --verify-serial the jobs that still completed Full are checked
// bit-identical to serial runs (jobs degraded to Partial checkpoints by an
// injected fault are reported but not compared).  Injected failures do not
// fail the exit code; crashes, hangs, and verify mismatches do.
//
// Durability soak: --journal-dir enables the engine's write-ahead journal
// (checkpoints every --checkpoint-every committed mergers, default 1);
// --kill-after N _exit(137)s the process at the N-th checkpoint
// persistence (shorthand for --inject journal.checkpoint:kill:1:0:N); a
// second invocation with --recover replays the interrupted directory
// through Engine::recover instead of submitting a fresh grid, and
// --verify-serial then checks the recovered results are bit-identical to
// uninterrupted runs:
//
//   hlts_batch --journal-dir /tmp/j --kill-after 3   # dies at 137
//   hlts_batch --journal-dir /tmp/j --recover --verify-serial
//
// Overload soak: --queue-cap bounds the pending queue and --policy picks
// the admission policy; shed/rejected jobs count as expected outcomes (not
// failures) and the engine health snapshot lands in the report.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "engine/engine.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

#include "bench_common.hpp"

namespace {

using namespace hlts;

/// Bit-identical comparison through the wire DTO (the engine's determinism
/// contract: same schedule, binding-derived counts, and cost bit patterns).
/// Routing the check through api::FlowResultV1 also proves the DTO carries
/// every field the contract compares.
bool identical(const core::FlowResult& a, const api::FlowResultV1& b) {
  return api::FlowResultV1::from_result(b.name, a).design_identical(b);
}

void write_snapshot(util::JsonWriter& w, const util::TraceSnapshot& snap) {
  w.begin_object();
  w.key("spans").begin_array();
  for (const util::SpanRecord& s : snap.spans) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("start_us").value(static_cast<std::int64_t>(s.start_us));
    w.key("dur_us").value(static_cast<std::int64_t>(s.dur_us));
    w.end_object();
  }
  w.end_array();
  w.key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) {
    w.key(name).value(value);
  }
  w.end_object();
  w.end_object();
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--jobs N] [--threads N] [--bits N] [--out FILE]"
               " [--verify-serial] [--inject SPEC]"
               " [--journal-dir DIR] [--checkpoint-every N] [--kill-after N]"
               " [--recover] [--queue-cap N] [--policy block|reject|shed]"
               " [--atpg-backend timeframe|sat|hybrid] [--dump-cnf DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;
  int threads = 0;
  int bits = 8;
  std::string out_path = "hlts_batch_report.json";
  bool verify_serial = false;
  std::string inject;
  std::string journal_dir;
  int checkpoint_every = 1;
  int kill_after = 0;
  bool recover = false;
  int queue_cap = -1;  // -1 = unbounded
  engine::OverloadPolicy policy = engine::OverloadPolicy::Block;
  std::string atpg_backend;  // empty = no post-synthesis ATPG evaluation
  std::string dump_cnf;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int& dst) {
      if (i + 1 >= argc) return false;
      try {
        dst = std::stoi(argv[++i]);
      } catch (const std::exception&) {
        std::cerr << arg << ": expected a number, got '" << argv[i] << "'\n";
        return false;
      }
      return true;
    };
    if (arg == "--jobs") {
      if (!next_int(jobs)) return usage(argv[0]);
    } else if (arg == "--threads") {
      if (!next_int(threads)) return usage(argv[0]);
    } else if (arg == "--bits") {
      if (!next_int(bits)) return usage(argv[0]);
    } else if (arg == "--out") {
      if (i + 1 >= argc) return usage(argv[0]);
      out_path = argv[++i];
    } else if (arg == "--verify-serial") {
      verify_serial = true;
    } else if (arg == "--inject") {
      if (i + 1 >= argc) return usage(argv[0]);
      inject = argv[++i];
    } else if (arg == "--journal-dir") {
      if (i + 1 >= argc) return usage(argv[0]);
      journal_dir = argv[++i];
    } else if (arg == "--checkpoint-every") {
      if (!next_int(checkpoint_every)) return usage(argv[0]);
    } else if (arg == "--kill-after") {
      if (!next_int(kill_after)) return usage(argv[0]);
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg == "--queue-cap") {
      if (!next_int(queue_cap)) return usage(argv[0]);
    } else if (arg == "--policy") {
      if (i + 1 >= argc) return usage(argv[0]);
      const std::string name = argv[++i];
      if (name == "block") {
        policy = engine::OverloadPolicy::Block;
      } else if (name == "reject") {
        policy = engine::OverloadPolicy::Reject;
      } else if (name == "shed") {
        policy = engine::OverloadPolicy::ShedOldest;
      } else {
        std::cerr << "--policy: unknown policy '" << name << "'\n";
        return usage(argv[0]);
      }
    } else if (arg == "--atpg-backend") {
      if (i + 1 >= argc) return usage(argv[0]);
      atpg_backend = argv[++i];
      if (atpg_backend != "timeframe" && atpg_backend != "sat" &&
          atpg_backend != "hybrid") {
        std::cerr << "--atpg-backend: unknown backend '" << atpg_backend
                  << "'\n";
        return usage(argv[0]);
      }
    } else if (arg == "--dump-cnf") {
      if (i + 1 >= argc) return usage(argv[0]);
      dump_cnf = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!dump_cnf.empty() && atpg_backend.empty()) {
    std::cerr << "--dump-cnf requires --atpg-backend sat or hybrid\n";
    return usage(argv[0]);
  }
  if ((kill_after > 0 || recover) && journal_dir.empty()) {
    std::cerr << "--kill-after/--recover require --journal-dir\n";
    return usage(argv[0]);
  }
  if (kill_after > 0) {
    // Shorthand for the crash soak: die inside the kill_after-th checkpoint
    // persistence, leaving a journal a --recover run replays.
    if (!inject.empty()) inject += ",";
    inject += "journal.checkpoint:kill:1:0:" + std::to_string(kill_after);
  }

  if (!inject.empty()) {
    std::string error;
    if (!util::failpoint::configure(inject, &error)) {
      std::cerr << "--inject: " << error << "\n";
      return 2;
    }
  }

  const std::vector<std::string> bench_names = {"ex", "dct", "diffeq", "ewf"};
  const std::vector<core::FlowKind> kinds = {
      core::FlowKind::Camad, core::FlowKind::Approach1,
      core::FlowKind::Approach2, core::FlowKind::Ours};

  struct JobMeta {
    std::string benchmark;
    core::FlowKind kind;
    dfg::Dfg dfg;
    bool known = true;  ///< benchmark resolvable (verify only known jobs)
  };
  std::vector<JobMeta> meta;
  std::vector<api::FlowRequestV1> requests;
  if (!recover) {
    for (const std::string& bench : bench_names) {
      dfg::Dfg g = benchmarks::make_benchmark(bench);
      for (core::FlowKind kind : kinds) {
        api::FlowRequestV1 r;
        r.name = bench + "/" + core::flow_name(kind);
        r.kind = kind;
        r.dfg = g;
        r.params = bench::paper_params(bits);
        requests.push_back(std::move(r));
        meta.push_back({bench, kind, g, true});
      }
    }
  }

  engine::EngineOptions eopts;
  eopts.max_concurrent_jobs = jobs;
  eopts.threads_per_job = threads;
  eopts.journal_dir = journal_dir;
  eopts.checkpoint_every = checkpoint_every;
  if (queue_cap >= 0) {
    eopts.queue_capacity = static_cast<std::size_t>(queue_cap);
  }
  eopts.overload_policy = policy;
  engine::Engine eng(eopts);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<engine::JobPtr> handles;
  if (recover) {
    // Replay an interrupted journal instead of submitting a fresh grid.
    engine::Engine::RecoveryReport rep = eng.recover(journal_dir);
    for (const std::string& e : rep.errors) {
      std::cerr << "recover: " << e << "\n";
    }
    handles = std::move(rep.jobs);
    for (const engine::JobPtr& job : handles) {
      const std::string bench = job->name().substr(0, job->name().find('/'));
      const bool known = std::find(bench_names.begin(), bench_names.end(),
                                   bench) != bench_names.end();
      meta.push_back({bench, job->kind(),
                      known ? benchmarks::make_benchmark(bench)
                            : dfg::Dfg(bench),
                      known});
    }
    std::cout << "hlts_batch: recovered " << handles.size()
              << " unfinished job(s) from " << journal_dir << "\n";
  } else {
    std::cout << "hlts_batch: " << requests.size() << " jobs ("
              << bench_names.size() << " benchmarks x " << kinds.size()
              << " flows), " << eng.max_concurrent_jobs() << " concurrent x "
              << eng.threads_per_job() << " trial threads, " << bits
              << "-bit datapath\n";
    handles.reserve(requests.size());
    for (const api::FlowRequestV1& r : requests) {
      try {
        handles.push_back(eng.submit(r));
      } catch (const Error& e) {
        // Write-ahead journaling refuses the submission (no side effects)
        // when the journal append hits a transient fs error -- e.g. an
        // ENOSPC injected via HLTS_IO_FAULTS.  Report and move on; a
        // non-transient error is a real bug and still propagates.
        if (e.kind() != ErrorKind::Transient) throw;
        std::cerr << "hlts_batch: submission refused: " << e.what() << "\n";
      }
    }
  }
  eng.wait_all();
  // Snapshot the injection statistics, then disarm: the --verify-serial
  // reference runs below must be fault-free baselines, and an injected
  // exception thrown here in main() would otherwise escape uncaught.
  const std::vector<util::failpoint::SiteStats> fp_stats =
      util::failpoint::stats();
  util::failpoint::clear();
  const double total_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();

  int failures = 0;
  int mismatches = 0;
  int partials = 0;
  int shed = 0;
  util::JsonWriter w;
  w.begin_object();
  w.key("config").begin_object();
  w.key("jobs").value(eng.max_concurrent_jobs());
  w.key("threads_per_job").value(eng.threads_per_job());
  w.key("bits").value(bits);
  w.key("verify_serial").value(verify_serial);
  w.key("inject").value(inject);
  w.key("journal_dir").value(journal_dir);
  w.key("recover").value(recover);
  w.key("queue_cap").value(queue_cap);
  w.key("policy").value(engine::overload_policy_name(policy));
  w.key("atpg_backend").value(atpg_backend);
  w.key("dump_cnf").value(dump_cnf);
  w.end_object();
  w.key("jobs").begin_array();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const engine::JobPtr& job = handles[i];
    // Everything the report says about a job flows through the versioned
    // DTO -- the same record the wire protocol and the journal carry.
    const api::FlowResultV1 res = engine::job_result_to_api(*job);
    w.begin_object();
    w.key("name").value(res.name);
    w.key("benchmark").value(meta[i].benchmark);
    w.key("flow").value(core::flow_name(meta[i].kind));
    w.key("state").value(res.state);
    w.key("wall_ms").value(res.wall_ms);
    w.key("attempts").value(job->attempts());
    w.key("stalled").value(job->stalled());
    // Cancelled/TimedOut (and degraded-Partial Succeeded) jobs still carry
    // their best checkpoint: report it wherever it exists.
    if (res.has_design) {
      w.key("completeness").value(res.completeness);
      w.key("stop_reason").value(res.stop_reason);
      w.key("iterations").value(res.iterations);
      w.key("result").begin_object();
      w.key("exec_time").value(res.exec_time);
      w.key("registers").value(res.registers);
      w.key("modules").value(res.modules);
      w.key("muxes").value(res.muxes);
      w.key("self_loops").value(res.self_loops);
      w.key("area").value(res.area);
      w.key("balance_index").value(res.balance_index);
      w.key("module_allocation").begin_array();
      for (const std::string& s : res.module_allocation) w.value(s);
      w.end_array();
      w.key("register_allocation").begin_array();
      for (const std::string& s : res.register_allocation) w.value(s);
      w.end_array();
      w.end_object();
      if (res.completeness ==
          core::completeness_name(core::Completeness::Partial)) {
        ++partials;
      }
      // The determinism contract only covers complete runs: a job degraded
      // to a Partial checkpoint by an injected fault stops at an earlier
      // iteration than the fault-free serial reference.
      // (Recovered jobs are verified against the same --bits the original
      // run used; pass the matching --bits on the --recover invocation.)
      if (verify_serial && meta[i].known &&
          job->state() == engine::JobState::Succeeded &&
          res.completeness ==
              core::completeness_name(core::Completeness::Full)) {
        const core::FlowResult serial = core::run_flow(
            meta[i].kind, meta[i].dfg, bench::paper_params(bits));
        const bool same = identical(serial, res);
        w.key("verify").value(same ? "identical" : "mismatch");
        if (!same) {
          ++mismatches;
          std::cerr << "MISMATCH vs serial run_flow: " << res.name << "\n";
        }
      }
    }
    // Post-synthesis testability evaluation under the selected backend.
    // Full results only: a Partial checkpoint's coverage would not be
    // comparable across runs.  The settings come from this invocation's
    // command line, --recover included (like --bits).
    if (!atpg_backend.empty() && meta[i].known &&
        job->state() == engine::JobState::Succeeded && res.has_design &&
        res.completeness ==
            core::completeness_name(core::Completeness::Full) &&
        job->result().has_value()) {
      const core::FlowResult& fr = *job->result();
      rtl::RtlDesign design = rtl::RtlDesign::from_synthesis(
          meta[i].dfg, fr.schedule, fr.binding, bits);
      rtl::Elaboration elab = rtl::elaborate(design);
      atpg::AtpgOptions ao;
      ao.backend = atpg_backend;
      ao.dump_cnf_dir = dump_cnf;
      const atpg::AtpgResult ar =
          atpg::run_atpg(elab.netlist, design.steps() + 1, ao);
      w.key("atpg").begin_object();
      w.key("backend").value(ar.backend);
      w.key("total_faults").value(static_cast<std::int64_t>(ar.total_faults));
      w.key("detected").value(static_cast<std::int64_t>(ar.detected()));
      w.key("detected_random")
          .value(static_cast<std::int64_t>(ar.detected_random));
      w.key("detected_deterministic")
          .value(static_cast<std::int64_t>(ar.detected_deterministic));
      w.key("untestable_proved")
          .value(static_cast<std::int64_t>(ar.untestable_proved));
      w.key("aborted").value(static_cast<std::int64_t>(ar.aborted));
      w.key("unconfirmed").value(static_cast<std::int64_t>(ar.unconfirmed));
      w.key("fault_coverage").value(ar.fault_coverage);
      w.key("fault_efficiency").value(ar.fault_efficiency);
      w.key("tg_time_ms").value(ar.tg_time_ms);
      w.key("test_cycles").value(ar.test_cycles);
      w.end_object();
    }
    if (job->state() == engine::JobState::Rejected) {
      // Shed/rejected under an explicit queue bound is the admission
      // policy working as configured, not a job failure.
      ++shed;
      w.key("error").value(res.error);
    } else if (job->state() != engine::JobState::Succeeded) {
      ++failures;
      w.key("error").value(res.error);
      std::cerr << "job " << res.name << " " << res.state << ": " << res.error
                << "\n";
    }
    w.key("trace");
    write_snapshot(w, job->trace());
    w.end_object();
  }
  w.end_array();
  w.key("engine");
  write_snapshot(w, eng.metrics());
  // The health block is the same api::HealthV1 document a serving shard
  // reports (shard 0: a batch run is a single-shard cluster).
  w.key("health").raw_value(util::json_dump(eng.health().to_api(0).to_json()));
  if (!inject.empty()) {
    w.key("failpoints").begin_array();
    for (const util::failpoint::SiteStats& s : fp_stats) {
      w.begin_object();
      w.key("site").value(s.site);
      w.key("hits").value(s.hits);
      w.key("triggers").value(s.triggers);
      w.end_object();
    }
    w.end_array();
  }
  w.key("wall_ms_total").value(total_ms);
  w.end_object();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << w.str() << "\n";

  std::cout << "hlts_batch: " << handles.size() - failures - shed << "/"
            << handles.size() << " jobs succeeded in " << total_ms
            << " ms; report: " << out_path << "\n";
  if (shed > 0) {
    std::cout << "hlts_batch: " << shed
              << " job(s) shed/rejected by admission control\n";
  }
  if (partials > 0) {
    std::cout << "hlts_batch: " << partials
              << " job(s) returned Partial checkpoints\n";
  }
  if (verify_serial) {
    std::cout << "hlts_batch: serial verification "
              << (mismatches == 0 ? "passed (all bit-identical)"
                                  : "FAILED")
              << "\n";
  }
  // Under injection, individual job failures are the *expected* outcome of
  // the injected faults; the soak passes as long as nothing crashed or
  // hung and the surviving Full results verified.
  const bool jobs_ok = failures == 0 || !inject.empty();
  return (jobs_ok && mismatches == 0) ? 0 : 1;
}
