// Scaling bench for Algorithm 1's trial evaluation: sweeps the trial
// thread count over all six benchmarks (ex / dct / diffeq / ewf / paulin /
// tseng) and writes BENCH_synthesis.json so the perf trajectory of the
// synthesis loop has data.
//
// Knobs exercised:
//   - SynthesisParams::num_threads -- each iteration's trials fan out in
//     waves across a reusable pool, padded with later candidates in rank
//     order (bit-identical results for every thread count, verified here
//     on every run);
//   - fault simulation of the synthesized design's full collapsed fault
//     universe (FaultSimulator's 256-lane packets), reported as one
//     Mgate-lane-evals/s figure per benchmark;
//   - Algorithm 1 at scale: Ours run to convergence on seeded generated
//     designs, workload::generate(42, {ops, depth = 8}) at 8 bits and one
//     thread, for 20/40/80/120/200/500 ops (20/40/80 under --quick),
//     written to the JSON's own "generated" section with wall time
//     (median, min and max over the reps), committed iterations, evaluated
//     trials and the trial outcome counters of one serial traced run
//     (synth.trials_cyclic_multi / _cyclic_rescued / _cyclic_unrescued /
//     _certified / _over_latency / _costed).
//
// Each benchmark's serial exact run and each generated point also records
// a digest of its result signature (every committed merger with its
// bitwise cost numbers), so a change that alters any trajectory shows up
// against the committed file.
//
// Every config runs the exact path; the thread sweep's speedups are against
// its serial run.  Per-trial time is the serial run's median wall-clock over
// a timed loop of at least 5 runs and 200 ms (also under --quick) divided by
// its synth.trials_evaluated counter; each ATPG backend's tg_ms is the
// median of the same kind of timed loop.  Usage:
//
//   bench_synthesis_scale [output.json] [reps] [--quick] [--verify-serial]
//                         [--compare committed.json]
//
//   --quick          one rep per configuration (CI smoke); the per-trial
//                    and ATPG times keep their timed loop
//   --verify-serial  also check the 4-thread fault-sim detected set, and
//                    the 4-thread generated-design trajectories, are
//                    bit-identical to the serial ones
//   --compare FILE   fail (exit 1) when a benchmark's ATPG counts
//                    (detected / untestable / aborted / unconfirmed, both
//                    backends), a synthesis digest (a benchmark's or a
//                    generated point's) or a generated point's serial
//                    trials_certified differ from the committed JSON --
//                    they are deterministic, so this is an identity check
//                    (the last one stops a change that silently turns the
//                    cycle certificates off);
//                    warn (non-gating) when its serial per-trial time or
//                    its timeframe or hybrid ATPG time (tg_ms) regressed
//                    >20% at the machine's speed of the committed run
//
// Every run records "reference_kernel_s", the fastest of 15 runs of a fixed
// reference loop (bench_common.hpp) before the benchmarks and 15 after
// them.  --compare scales the committed per-trial and ATPG times by the
// ratio of this run's reference time to the committed one before it warns,
// so a slower day of the same machine does not read as a regression.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/faults.hpp"
#include "bench_common.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "core/synthesis.hpp"
#include "rtl/elaborate.hpp"
#include "rtl/rtl.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "workload/generator.hpp"

namespace {

using hlts::core::SynthesisParams;
using hlts::core::SynthesisResult;

/// Exact signature of a run: every committed merger with its bitwise cost
/// numbers.  Two runs are "bit-identical" iff their signatures match.
std::string signature(const SynthesisResult& r) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& rec : r.trajectory) {
    os << rec.description << ';' << rec.exec_time << ';' << rec.hw_cost
       << ';' << rec.delta_c << '|';
  }
  os << "final;" << r.exec_time << ';' << r.cost.total();
  return os.str();
}

/// 64-bit FNV-1a of a signature, as 16 hex digits.
std::string digest(const std::string& signature) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : signature) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double best_of(int reps, const hlts::dfg::Dfg& g, const SynthesisParams& p,
               std::string* sig) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    SynthesisResult r = hlts::core::integrated_synthesis(g, p);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < best) best = ms;
    if (rep == 0) *sig = signature(r);
  }
  return best;
}

/// The median wall-clock of one call of `run` over a timed loop of at least
/// 5 calls and 200 ms.  A benchmark's synthesis takes 1-3 ms and its ATPG
/// run varies by a third from one run to the next, so one run's time is
/// mostly noise; the per-trial and ATPG times --compare warns on are taken
/// from this.
template <typename Run>
double median_run_ms(Run&& run) {
  std::vector<double> runs;
  double total_ms = 0;
  while (runs.size() < 5 || total_ms < 200) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    runs.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    total_ms += runs.back();
  }
  const auto mid = runs.begin() + static_cast<std::ptrdiff_t>(runs.size() / 2);
  std::nth_element(runs.begin(), mid, runs.end());
  return *mid;
}

/// One configuration's best wall-clock over `reps`, its median run time
/// (median_run_ms), and the trial count of a single traced run.
struct ConfigSample {
  double ms = 0;
  double median_ms = 0;
  std::string sig;
  std::int64_t trials = 0;  ///< synth.trials_evaluated
};

ConfigSample sample_config(int reps, const hlts::dfg::Dfg& g,
                           const SynthesisParams& p) {
  ConfigSample s;
  s.ms = best_of(reps, g, p, &s.sig);
  s.median_ms =
      median_run_ms([&] { (void)hlts::core::integrated_synthesis(g, p); });
  hlts::util::Trace trace;
  {
    hlts::util::Trace::Scope scope(&trace);
    (void)hlts::core::integrated_synthesis(g, p);
  }
  const auto counters = trace.snapshot().counters;
  if (auto it = counters.find("synth.trials_evaluated"); it != counters.end())
    s.trials = it->second;
  return s;
}

// ---------------------------------------------------------------------------
// Fault-simulation throughput: a serial detected_by pass over the
// synthesized design's netlist, measured as Mgate-lane-evals/s.
// ---------------------------------------------------------------------------
struct FaultSimSample {
  std::size_t gates = 0;
  std::size_t faults = 0;
  double ms = 0;  ///< best wall-clock of one detected_by pass
  double mgle_per_s = 0;
  bool threads4_identical = true;  ///< --verify-serial: 4-thread run matches
};

FaultSimSample fault_sim_sample(const hlts::dfg::Dfg& g, int reps,
                                bool verify_serial) {
  namespace atpg = hlts::atpg;
  hlts::core::FlowResult r =
      hlts::core::run_flow(hlts::core::FlowKind::Ours, g, {.bits = 8});
  hlts::rtl::RtlDesign design =
      hlts::rtl::RtlDesign::from_synthesis(g, r.schedule, r.binding, 8);
  hlts::rtl::Elaboration elab = hlts::rtl::elaborate(design);
  const hlts::gates::Netlist& nl = elab.netlist;

  atpg::FaultUniverse universe = atpg::FaultUniverse::collapsed(nl);
  const std::vector<atpg::Fault> faults = universe.faults();

  // A fixed pseudo-random sequence, long enough that most batches run all
  // cycles (early exit only fires once every lane of a batch is detected).
  hlts::Rng rng(11);
  atpg::TestSequence seq;
  const int cycles = 2 * (r.exec_time + 1);
  for (int c = 0; c < cycles; ++c) {
    atpg::TestVector v(nl.inputs().size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
    if (c == 0 && !v.empty()) v[0] = true;  // reset
    seq.push_back(v);
  }

  FaultSimSample s;
  s.gates = nl.num_gates();
  s.faults = faults.size();
  atpg::FaultSimulator fsim(nl, /*num_threads=*/1);
  std::vector<std::size_t> detected;
  std::uint64_t lane_evals = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t evals_before = fsim.gate_lane_evals();
    const auto t0 = std::chrono::steady_clock::now();
    detected = fsim.detected_by(seq, faults);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    lane_evals = fsim.gate_lane_evals() - evals_before;
    if (rep == 0 || ms < s.ms) s.ms = ms;
  }
  s.mgle_per_s = s.ms > 0 ? static_cast<double>(lane_evals) / (s.ms * 1e3) : 0;
  if (verify_serial) {
    atpg::FaultSimulator threaded(nl, /*num_threads=*/4);
    s.threads4_identical = threaded.detected_by(seq, faults) == detected;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Deterministic-ATPG backends: full run_atpg under "timeframe" (random +
// PODEM) and "hybrid" (random + SAT on the survivors) over the same
// synthesized design, so the JSON tracks per-backend TG time and coverage.
// Each run is traced; the hybrid row splits its time into the per-target
// atpg.sat_encode / atpg.sat_solve / atpg.rescue spans.
// ---------------------------------------------------------------------------
struct AtpgBackendSample {
  std::string backend;
  double coverage = 0;
  double efficiency = 0;
  double tg_ms = 0;      ///< median_run_ms of run_atpg
  double encode_ms = 0;  ///< summed atpg.sat_encode spans
  double solve_ms = 0;   ///< summed atpg.sat_solve spans
  double rescue_ms = 0;  ///< summed atpg.rescue spans
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;
  std::size_t unconfirmed = 0;
};

std::vector<AtpgBackendSample> atpg_backend_sweep(const hlts::dfg::Dfg& g,
                                                  bool* hybrid_ge_timeframe) {
  namespace atpg = hlts::atpg;
  hlts::core::FlowResult r =
      hlts::core::run_flow(hlts::core::FlowKind::Ours, g, {.bits = 8});
  hlts::rtl::RtlDesign design =
      hlts::rtl::RtlDesign::from_synthesis(g, r.schedule, r.binding, 8);
  hlts::rtl::Elaboration elab = hlts::rtl::elaborate(design);

  std::vector<AtpgBackendSample> samples;
  for (const char* backend : {"timeframe", "hybrid"}) {
    atpg::AtpgOptions options;
    options.backend = backend;
    // The same modest per-fault budget the sat test suite uses: coverage
    // dominance holds at it and the six-benchmark sweep stays affordable
    // in the perf-smoke job.
    options.sat_conflict_budget = 2000;
    hlts::util::Trace trace;
    atpg::AtpgResult res;
    {
      const hlts::util::Trace::Scope scope(&trace);
      res = atpg::run_atpg(elab.netlist, design.steps() + 1, options);
    }
    AtpgBackendSample s;
    s.tg_ms = median_run_ms([&] {
      (void)atpg::run_atpg(elab.netlist, design.steps() + 1, options);
    });
    for (const hlts::util::SpanRecord& span : trace.snapshot().spans) {
      const double ms = static_cast<double>(span.dur_us) / 1e3;
      if (span.name == "atpg.sat_encode") s.encode_ms += ms;
      if (span.name == "atpg.sat_solve") s.solve_ms += ms;
      if (span.name == "atpg.rescue") s.rescue_ms += ms;
    }
    s.backend = backend;
    s.coverage = res.fault_coverage;
    s.efficiency = res.fault_efficiency;
    s.detected = res.detected();
    s.untestable = res.untestable_proved;
    s.aborted = res.aborted;
    s.unconfirmed = res.unconfirmed;
    samples.push_back(std::move(s));
  }
  *hybrid_ge_timeframe = samples[1].coverage >= samples[0].coverage;
  return samples;
}

// ---------------------------------------------------------------------------
// Generated-design sweep: Ours to convergence at growing design sizes.
// ---------------------------------------------------------------------------
struct GeneratedSample {
  int ops = 0;
  double ms_median = 0, ms_min = 0, ms_max = 0;
  int iterations = 0;
  std::int64_t trials = 0;  ///< synth.trials_evaluated of one traced run
  /// The trial outcome counters of that run, by name without "synth.".
  std::vector<std::pair<std::string, std::int64_t>> outcomes;
  std::int64_t certified = 0;  ///< synth.trials_certified of that run
  std::string stop_reason;
  std::string digest;  ///< of the serial run's signature
  bool threads4_identical = true;  ///< --verify-serial: 4 threads match
};

GeneratedSample generated_sample(int ops, int reps, bool verify_serial) {
  namespace core = hlts::core;
  hlts::workload::DfgShape shape;
  shape.ops = ops;
  shape.depth = 8;
  const hlts::dfg::Dfg g = hlts::workload::generate(42, shape);
  core::FlowParams params;
  params.bits = 8;
  params.num_threads = 1;
  SynthesisParams p = core::synthesis_params(core::FlowKind::Ours, params);

  GeneratedSample s;
  s.ops = ops;
  std::vector<double> ms;
  std::string sig;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const SynthesisResult r = core::integrated_synthesis(g, p);
    const auto t1 = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (rep == 0) {
      s.iterations = r.iterations;
      s.stop_reason = r.stop_reason;
      sig = signature(r);
    }
  }
  std::sort(ms.begin(), ms.end());
  s.ms_min = ms.front();
  s.ms_max = ms.back();
  s.ms_median = ms[ms.size() / 2];

  hlts::util::Trace trace;
  {
    hlts::util::Trace::Scope scope(&trace);
    (void)core::integrated_synthesis(g, p);
  }
  const auto counters = trace.snapshot().counters;
  auto read = [&](const std::string& name) -> std::int64_t {
    const auto it = counters.find("synth." + name);
    return it == counters.end() ? 0 : it->second;
  };
  s.trials = read("trials_evaluated");
  for (const char* name :
       {"trials_cyclic_multi", "trials_cyclic_rescued",
        "trials_cyclic_unrescued", "trials_certified", "trials_over_latency",
        "trials_costed"}) {
    s.outcomes.emplace_back(name, read(name));
  }
  s.certified = read("trials_certified");

  s.digest = digest(sig);
  if (verify_serial) {
    p.num_threads = 4;
    s.threads4_identical = signature(core::integrated_synthesis(g, p)) == sig;
  }
  return s;
}

/// Source-tree commit for the JSON header (`git rev-parse` at run time;
/// "-dirty" when the tree has uncommitted changes, "unknown" without git).
std::string source_commit() {
  const std::string git = std::string("git -C \"") + HLTS_SOURCE_DIR + "\" ";
  auto run = [](const std::string& cmd) {
    std::string out;
    if (FILE* pipe = popen(cmd.c_str(), "r")) {
      char buf[256];
      while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
      pclose(pipe);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
      out.pop_back();
    }
    return out;
  };
  std::string commit = run(git + "rev-parse HEAD 2>/dev/null");
  if (commit.empty()) return "unknown";
  if (!run(git + "status --porcelain --untracked-files=no 2>/dev/null")
           .empty()) {
    commit += "-dirty";
  }
  return commit;
}

/// Pulls `"<key>": <number>` for benchmark `name` out of a committed
/// BENCH_synthesis.json, optionally the first one after `within` inside
/// that benchmark's entry (crude scan; the file is machine-written).
std::optional<double> committed_number(const std::string& json,
                                       const std::string& name,
                                       const std::string& key,
                                       const std::string& within = "") {
  const std::string anchor = "\"name\": \"" + name + "\"";
  std::size_t at = json.find(anchor);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t end = json.find("\"name\": \"", at + anchor.size());
  if (!within.empty()) at = json.find(within, at);
  const std::string needle = "\"" + key + "\": ";
  if (at != std::string::npos) at = json.find(needle, at);
  if (at == std::string::npos || at > end) return std::nullopt;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/// The string value of `"<key>": "..."` in the JSON object that `anchor`
/// opens, searched up to that object's first closing brace (crude scan;
/// the file is machine-written with the key ahead of any nested object).
std::optional<std::string> committed_string(const std::string& json,
                                            const std::string& anchor,
                                            const std::string& key) {
  std::size_t at = json.find(anchor);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t close = json.find('}', at);
  const std::string needle = "\"" + key + "\": \"";
  at = json.find(needle, at);
  if (at == std::string::npos || at > close) return std::nullopt;
  at += needle.size();
  return json.substr(at, json.find('"', at) - at);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_synthesis.json";
  int reps = 3;
  bool quick = false;
  bool verify_serial = false;
  std::string compare_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--verify-serial") {
      verify_serial = true;
    } else if (arg == "--compare" && i + 1 < argc) {
      compare_path = argv[++i];
    } else if (positional == 0) {
      out_path = arg;
      ++positional;
    } else if (positional == 1) {
      reps = std::max(1, std::atoi(arg.c_str()));
      ++positional;
    }
  }
  if (quick) reps = 1;

  const std::size_t hw = hlts::util::ThreadPool::default_threads();
  std::vector<int> thread_configs{1, 2, 4, static_cast<int>(hw)};
  std::sort(thread_configs.begin(), thread_configs.end());
  thread_configs.erase(
      std::unique(thread_configs.begin(), thread_configs.end()),
      thread_configs.end());

  SynthesisParams common;
  common.bits = 8;
  common.k = 8;  // wider candidate fan-out than the paper tables' k=5,
                 // so each iteration has enough independent trials to fill
                 // the pool

  std::string committed;
  if (!compare_path.empty()) {
    std::ifstream in(compare_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    committed = buf.str();
    if (committed.empty()) {
      std::cerr << "WARNING: --compare " << compare_path
                << " unreadable or empty; skipping comparison\n";
    }
  }

  // The machine's speed: the first half of the reference sample.
  double reference_s = hlts::bench::reference_kernel_min(15);

  std::ostringstream json;
  json.precision(17);
  json << "  \"benchmarks\": [\n";

  bool first_bench = true;
  int not_identical = 0;
  /// --compare: ATPG counts or synthesis digests off the committed file.
  int count_mismatches = 0;
  // A digest that differs from (or is missing in) the committed file.
  auto check_digest = [&](const std::string& what, const std::string& anchor,
                          const std::string& now) {
    if (committed.empty()) return;
    const std::optional<std::string> old =
        committed_string(committed, anchor, "digest");
    if (old && *old == now) return;
    ++count_mismatches;
    std::fprintf(stderr, "ERROR: %s synthesis digest is %s, %s has %s\n",
                 what.c_str(), now.c_str(), compare_path.c_str(),
                 old ? old->c_str() : "none");
  };
  // A generated point's serial trials_certified off the committed one (a
  // committed file that predates the record only warns).
  auto check_certified = [&](int ops, std::int64_t now) {
    if (committed.empty()) return;
    const std::string anchor = "{\"ops\": " + std::to_string(ops) + ",";
    const std::string needle = "\"trials_certified\": ";
    std::size_t at = committed.find(anchor);
    const std::size_t close =
        at == std::string::npos ? at : committed.find('}', at);
    if (at != std::string::npos) at = committed.find(needle, at);
    if (at == std::string::npos || at > close) {
      std::fprintf(stderr, "WARNING: gen-%d has no trials_certified in %s\n",
                   ops, compare_path.c_str());
      return;
    }
    const long long old =
        std::strtoll(committed.c_str() + at + needle.size(), nullptr, 10);
    if (old == now) return;
    ++count_mismatches;
    std::fprintf(stderr,
                 "ERROR: gen-%d trials_certified is %lld, %s has %lld\n", ops,
                 static_cast<long long>(now), compare_path.c_str(), old);
  };
  /// The times --compare warns on, checked once the reference sample is
  /// complete.
  struct BenchTimes {
    std::string name;
    double per_trial_us = 0;
    std::vector<AtpgBackendSample> atpg;
  };
  std::vector<BenchTimes> times;
  for (const char* name : {"ex", "dct", "diffeq", "ewf", "paulin", "tseng"}) {
    hlts::dfg::Dfg g = hlts::benchmarks::make_benchmark(name);

    // The serial run: the per-trial time, the digest, and the reference of
    // the thread sweep's bit-identity check.
    SynthesisParams serial = common;
    serial.num_threads = 1;
    const ConfigSample serial_s = sample_config(reps, g, serial);
    const double per_trial_us =
        serial_s.trials > 0 ? serial_s.median_ms * 1e3 / serial_s.trials : 0;

    SynthesisResult shape = hlts::core::integrated_synthesis(g, serial);
    std::printf(
        "%-7s serial: %8.1f ms  (%zu mergers, %lld trials, %.1f us/trial)\n",
        name, serial_s.ms, shape.trajectory.size(),
        static_cast<long long>(serial_s.trials), per_trial_us);

    const std::string bench_digest = digest(serial_s.sig);
    check_digest(name, std::string("\"name\": \"") + name + "\"",
                 bench_digest);
    if (!first_bench) json << ",\n";
    first_bench = false;
    json << "    {\n"
         << "      \"name\": \"" << name << "\",\n"
         << "      \"digest\": \"" << bench_digest << "\",\n"
         << "      \"mergers\": " << shape.trajectory.size() << ",\n"
         << "      \"trials\": " << serial_s.trials << ",\n"
         << "      \"per_trial_us\": " << per_trial_us << ",\n"
         << "      \"configs\": [\n";

    for (std::size_t ci = 0; ci < thread_configs.size(); ++ci) {
      const int threads = thread_configs[ci];
      SynthesisParams p = common;
      p.num_threads = threads;
      std::string sig = serial_s.sig;
      const double ms =
          threads == 1 ? serial_s.ms : best_of(reps, g, p, &sig);
      const bool identical = sig == serial_s.sig;
      if (!identical) ++not_identical;
      const double speedup = ms > 0 ? serial_s.ms / ms : 0;
      std::printf(
          "%-7s threads=%-2d: %8.1f ms   speedup vs serial %.2fx"
          "   identical_to_serial=%s\n",
          name, threads, ms, speedup, identical ? "yes" : "NO");
      json << "        {\"threads\": " << threads << ", \"ms\": " << ms
           << ", \"speedup_vs_serial\": " << speedup
           << ", \"identical_to_serial\": " << (identical ? "true" : "false")
           << "}" << (ci + 1 < thread_configs.size() ? "," : "") << "\n";
    }
    json << "      ],\n";

    // Fault-sim throughput over the synthesized design.
    const FaultSimSample fs = fault_sim_sample(g, reps, verify_serial);
    if (!fs.threads4_identical) ++not_identical;
    std::printf("%-7s fault-sim: %8.2f ms   %8.1f Mgate-lane-evals/s%s\n",
                name, fs.ms, fs.mgle_per_s,
                verify_serial
                    ? (fs.threads4_identical ? "   threads4=yes"
                                             : "   threads4=NO")
                    : "");
    json << "      \"fault_sim\": {\"gates\": " << fs.gates
         << ", \"faults\": " << fs.faults << ", \"ms\": " << fs.ms
         << ", \"mgate_lane_evals_per_s\": " << fs.mgle_per_s
         << ", \"threads4_identical\": "
         << (fs.threads4_identical ? "true" : "false") << "},\n";

    // Deterministic-ATPG backend comparison on the same design: the hybrid
    // (random + SAT) mode must cover at least what the timeframe (random +
    // PODEM) mode covers -- SAT is complete within the shared frame bound
    // where PODEM's bounded backtracking aborts.
    bool hybrid_ge_timeframe = true;
    std::vector<AtpgBackendSample> atpg_samples =
        atpg_backend_sweep(g, &hybrid_ge_timeframe);
    if (!hybrid_ge_timeframe) ++not_identical;
    json << "      \"atpg_backends\": [\n";
    for (std::size_t ai = 0; ai < atpg_samples.size(); ++ai) {
      const AtpgBackendSample& s = atpg_samples[ai];
      std::printf(
          "%-7s atpg backend=%-9s: coverage %6.2f%%  efficiency %6.2f%%  "
          "tg %7.1f ms  untestable %zu  aborted %zu%s\n",
          name, s.backend.c_str(), 100 * s.coverage, 100 * s.efficiency,
          s.tg_ms, s.untestable, s.aborted,
          s.backend == "hybrid"
              ? (hybrid_ge_timeframe ? "  >=timeframe=yes" : "  >=timeframe=NO")
              : "");
      if (s.backend == "hybrid") {
        std::printf("%-7s atpg hybrid split: sat_encode %7.1f ms  sat_solve "
                    "%7.1f ms  rescue %7.1f ms\n",
                    name, s.encode_ms, s.solve_ms, s.rescue_ms);
      }
      json << "        {\"backend\": \"" << s.backend << "\""
           << ", \"fault_coverage\": " << s.coverage
           << ", \"fault_efficiency\": " << s.efficiency
           << ", \"tg_ms\": " << s.tg_ms
           << ", \"detected\": " << s.detected
           << ", \"untestable\": " << s.untestable
           << ", \"aborted\": " << s.aborted
           << ", \"unconfirmed\": " << s.unconfirmed;
      if (s.backend == "hybrid") {
        json << ", \"sat_encode_ms\": " << s.encode_ms
             << ", \"sat_solve_ms\": " << s.solve_ms
             << ", \"rescue_ms\": " << s.rescue_ms
             << ", \"coverage_ge_timeframe\": "
             << (hybrid_ge_timeframe ? "true" : "false");
      }
      json << "}" << (ai + 1 < atpg_samples.size() ? "," : "") << "\n";
    }
    json << "      ]\n    }";

    if (!committed.empty()) {
      for (const AtpgBackendSample& s : atpg_samples) {
        const std::string row = "\"backend\": \"" + s.backend + "\"";
        const std::pair<const char*, std::size_t> counts[] = {
            {"detected", s.detected},
            {"untestable", s.untestable},
            {"aborted", s.aborted},
            {"unconfirmed", s.unconfirmed}};
        for (const auto& [key, value] : counts) {
          const std::optional<double> old =
              committed_number(committed, name, key, row);
          if (old && *old == static_cast<double>(value)) continue;
          ++count_mismatches;
          const std::string was =
              old ? std::to_string(static_cast<long long>(*old)) : "none";
          std::fprintf(stderr, "ERROR: %s %s ATPG %s is %zu, %s has %s\n",
                       name, s.backend.c_str(), key, value,
                       compare_path.c_str(), was.c_str());
        }
      }
    }
    times.push_back({name, per_trial_us, std::move(atpg_samples)});
  }
  json << "\n  ],\n";

  // Algorithm 1 at scale on generated designs.
  std::vector<int> sizes{20, 40, 80};
  if (!quick) sizes.insert(sizes.end(), {120, 200, 500});
  json << "  \"generated\": {\n"
       << "    \"flow\": \"Ours\", \"seed\": 42, \"depth\": 8, "
       << "\"bits\": 8, \"threads\": 1, \"reps\": " << reps << ",\n"
       << "    \"points\": [\n";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const GeneratedSample gs = generated_sample(sizes[i], reps, verify_serial);
    if (!gs.threads4_identical) ++not_identical;
    check_digest("gen-" + std::to_string(gs.ops),
                 "{\"ops\": " + std::to_string(gs.ops) + ",", gs.digest);
    check_certified(gs.ops, gs.certified);
    std::printf(
        "gen-%-4d Ours to convergence: %9.1f ms (min %.1f, max %.1f)  "
        "%d iterations  %lld trials  %s%s\n",
        gs.ops, gs.ms_median, gs.ms_min, gs.ms_max, gs.iterations,
        static_cast<long long>(gs.trials), gs.stop_reason.c_str(),
        verify_serial ? (gs.threads4_identical ? "  threads4=yes"
                                               : "  threads4=NO")
                      : "");
    std::printf("        ");
    for (const auto& [name, n] : gs.outcomes) {
      std::printf(" %s %lld", name.c_str(), static_cast<long long>(n));
    }
    std::printf("\n");
    json << "      {\"ops\": " << gs.ops << ", \"ms_median\": " << gs.ms_median
         << ", \"ms_min\": " << gs.ms_min << ", \"ms_max\": " << gs.ms_max
         << ", \"iterations\": " << gs.iterations
         << ", \"trials\": " << gs.trials;
    for (const auto& [name, n] : gs.outcomes) {
      json << ", \"" << name << "\": " << n;
    }
    json << ", \"stop_reason\": \"" << gs.stop_reason << "\", \"digest\": \""
         << gs.digest << "\"";
    if (verify_serial) {
      json << ", \"threads4_identical\": "
           << (gs.threads4_identical ? "true" : "false");
    }
    json << "}" << (i + 1 < sizes.size() ? "," : "") << "\n";
  }
  json << "    ]\n  }\n}\n";

  // The second half of the reference sample, and the factor that takes the
  // committed timings to the machine's speed now (1 when the committed file
  // predates the record).
  reference_s = std::min(reference_s, hlts::bench::reference_kernel_min(15));
  int regressions = 0;
  if (!committed.empty()) {
    double speed_scale = 1.0;
    const std::size_t at = committed.find("\"reference_kernel_s\": ");
    if (at != std::string::npos) {
      const double old = std::strtod(
          committed.c_str() + at + std::strlen("\"reference_kernel_s\": "),
          nullptr);
      if (old > 0) speed_scale = reference_s / old;
    }
    std::printf("reference kernel: %.2f ms, committed timings scaled %.3fx\n",
                1e3 * reference_s, speed_scale);
    for (const BenchTimes& t : times) {
      const char* name = t.name.c_str();
      const double old_us =
          speed_scale *
          committed_number(committed, t.name, "per_trial_us").value_or(0);
      if (old_us > 0 && t.per_trial_us > old_us * 1.2) {
        ++regressions;
        std::fprintf(stderr,
                     "WARNING: %s per-trial time regressed %.1f -> %.1f us "
                     "(>20%% vs %s, at today's speed)\n",
                     name, old_us, t.per_trial_us, compare_path.c_str());
      }
      for (const AtpgBackendSample& s : t.atpg) {
        const std::string row = "\"backend\": \"" + s.backend + "\"";
        const double old_tg_ms =
            speed_scale *
            committed_number(committed, t.name, "tg_ms", row).value_or(0);
        if (old_tg_ms > 0 && s.tg_ms > old_tg_ms * 1.2) {
          ++regressions;
          std::fprintf(stderr,
                       "WARNING: %s %s ATPG time regressed %.1f -> %.1f ms "
                       "(>20%% vs %s, at today's speed)\n",
                       name, s.backend.c_str(), old_tg_ms, s.tg_ms,
                       compare_path.c_str());
        }
      }
    }
  }

  std::ofstream out(out_path);
  out.precision(17);
  out << "{\n"
      << "  \"bench\": \"bench_synthesis_scale\",\n"
      << "  \"commit\": \"" << source_commit() << "\",\n"
      << "  \"build_type\": \""
      << (*HLTS_BUILD_TYPE != '\0' ? HLTS_BUILD_TYPE : "none") << "\",\n"
      << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"default_threads\": " << hw << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"reference_kernel_s\": " << reference_s << ",\n"
      << "  \"params\": {\"bits\": " << common.bits << ", \"k\": " << common.k
      << "},\n"
      << json.str();
  if (!out) {
    std::cerr << "ERROR: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  if (regressions > 0) {
    std::cerr << "WARNING: " << regressions
              << " regression(s) >20% on per-trial or ATPG time "
                 "(non-gating)\n";
  }
  if (count_mismatches > 0) {
    std::cerr << "ERROR: " << count_mismatches
              << " ATPG count(s), synthesis digest(s) or trials_certified "
                 "differ from "
              << compare_path << "\n";
  }
  if (not_identical > 0) {
    std::cerr << "ERROR: " << not_identical
              << " config(s) diverged from the serial reference\n";
  }
  return count_mismatches > 0 || not_identical > 0 ? 1 : 0;
}
