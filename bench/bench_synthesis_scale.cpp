// Scaling bench for Algorithm 1's trial evaluation: sweeps the trial
// thread count over all six benchmarks (ex / dct / diffeq / ewf / paulin /
// tseng) and writes BENCH_synthesis.json so the perf trajectory of the
// synthesis loop has data.
//
// Knobs exercised:
//   - SynthesisParams::num_threads -- the k candidate trials of each
//     iteration fan out across a reusable pool (bit-identical results for
//     every thread count, verified here on every run);
//   - SynthesisParams::trial_cache -- candidates untouched by the committed
//     merger reuse their dE/dH across iterations;
//   - fault-simulation packet width (HLTS_SIMD_WIDTH / FaultSimulator's
//     simd_width): gate evaluation over 64 / 256 / 512 lanes, reported as
//     Mgate-lane-evals/s per width with the detected fault set checked for
//     bit-identity across widths (and thread counts with --verify-serial).
//
// The sweep configs run with the cache on (that is the production-scale
// configuration); the baseline row is the seed-equivalent exact path
// (serial, no cache), so the JSON records both the caching and the
// threading contribution.  Per-trial time is wall-clock divided by the
// synth.trials_evaluated counter of the same configuration.  Usage:
//
//   bench_synthesis_scale [output.json] [reps] [--quick] [--verify-serial]
//                         [--compare committed.json]
//
//   --quick          one rep per configuration (CI smoke)
//   --verify-serial  extend the fault-sim bit-identity check to 4 threads
//                    at every packet width
//   --compare FILE   warn (non-gating, exit 0) when a benchmark's serial
//                    per-trial time regressed >20% vs the committed JSON
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
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

/// One configuration's best wall-clock over `reps`, plus the trial count
/// of a single traced run.
struct ConfigSample {
  double ms = 0;
  std::string sig;
  std::int64_t trials = 0;  ///< synth.trials_evaluated
};

ConfigSample sample_config(int reps, const hlts::dfg::Dfg& g,
                           const SynthesisParams& p) {
  ConfigSample s;
  s.ms = best_of(reps, g, p, &s.sig);
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
// Fault-simulation throughput: detected_by over the synthesized design's
// netlist at every packet width, measured as Mgate-lane-evals/s.
// ---------------------------------------------------------------------------
struct FaultSimSample {
  int width = 0;
  double ms = 0;  ///< best wall-clock of one detected_by pass
  double mgle_per_s = 0;
  bool identical = true;           ///< detected set == width-64 serial set
  bool threads4_identical = true;  ///< --verify-serial: 4-thread run matches
};

std::vector<FaultSimSample> fault_sim_sweep(const hlts::dfg::Dfg& g, int reps,
                                            bool verify_serial,
                                            std::size_t* num_faults,
                                            std::size_t* num_gates,
                                            int* bad_configs) {
  namespace atpg = hlts::atpg;
  hlts::core::FlowResult r =
      hlts::core::run_flow(hlts::core::FlowKind::Ours, g, {.bits = 8});
  hlts::rtl::RtlDesign design =
      hlts::rtl::RtlDesign::from_synthesis(g, r.schedule, r.binding, 8);
  hlts::rtl::Elaboration elab = hlts::rtl::elaborate(design);
  const hlts::gates::Netlist& nl = elab.netlist;

  atpg::FaultUniverse universe = atpg::FaultUniverse::collapsed(nl);
  const std::vector<atpg::Fault> faults = universe.faults();
  *num_faults = faults.size();
  *num_gates = nl.num_gates();

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

  std::vector<FaultSimSample> samples;
  std::vector<std::size_t> reference;  // width-64 serial detected set
  for (const int width : {64, 256, 512}) {
    atpg::FaultSimulator fsim(nl, /*num_threads=*/1, width);
    FaultSimSample s;
    s.width = width;
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
    s.mgle_per_s =
        s.ms > 0 ? static_cast<double>(lane_evals) / (s.ms * 1e3) : 0;
    if (width == 64) reference = detected;
    s.identical = detected == reference;
    if (verify_serial) {
      atpg::FaultSimulator threaded(nl, /*num_threads=*/4, width);
      s.threads4_identical = threaded.detected_by(seq, faults) == reference;
    }
    if (!s.identical || !s.threads4_identical) ++*bad_configs;
    samples.push_back(s);
  }
  return samples;
}

// ---------------------------------------------------------------------------
// Deterministic-ATPG backends: full run_atpg under "timeframe" (random +
// PODEM) and "hybrid" (random + SAT on the survivors) over the same
// synthesized design, so the JSON tracks per-backend TG time and coverage.
// ---------------------------------------------------------------------------
struct AtpgBackendSample {
  std::string backend;
  double coverage = 0;
  double efficiency = 0;
  double tg_ms = 0;
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
    // The same modest per-fault budget the sat test suite uses: the hybrid
    // rescue pass preserves coverage dominance and the six-benchmark sweep
    // stays affordable in the perf-smoke job.
    options.sat_conflict_budget = 2000;
    const atpg::AtpgResult res =
        atpg::run_atpg(elab.netlist, design.steps() + 1, options);
    AtpgBackendSample s;
    s.backend = backend;
    s.coverage = res.fault_coverage;
    s.efficiency = res.fault_efficiency;
    s.tg_ms = res.tg_time_ms;
    s.detected = res.detected();
    s.untestable = res.untestable_proved;
    s.aborted = res.aborted;
    s.unconfirmed = res.unconfirmed;
    samples.push_back(std::move(s));
  }
  *hybrid_ge_timeframe = samples[1].coverage >= samples[0].coverage;
  return samples;
}

/// Pulls `"per_trial_us": <number>` for benchmark `name` out of a committed
/// BENCH_synthesis.json (crude scan; the file is machine-written).
double committed_per_trial_us(const std::string& json,
                              const std::string& name) {
  const std::string anchor = "\"name\": \"" + name + "\"";
  std::size_t at = json.find(anchor);
  if (at == std::string::npos) return 0;
  const std::string key = "\"per_trial_us\": ";
  at = json.find(key, at);
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
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

  std::ostringstream json;
  json.precision(17);
  json << "{\n"
       << "  \"bench\": \"bench_synthesis_scale\",\n"
       << "  \"default_threads\": " << hw << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"params\": {\"bits\": " << common.bits << ", \"k\": " << common.k
       << "},\n"
       << "  \"benchmarks\": [\n";

  bool first_bench = true;
  int not_identical = 0;
  int regressions = 0;
  for (const char* name : {"ex", "dct", "diffeq", "ewf", "paulin", "tseng"}) {
    hlts::dfg::Dfg g = hlts::benchmarks::make_benchmark(name);

    // Seed-equivalent exact path: serial, no trial cache.
    SynthesisParams baseline = common;
    baseline.num_threads = 1;
    baseline.trial_cache = false;
    const ConfigSample baseline_s = sample_config(reps, g, baseline);

    // Serial reference for the bit-identity check of the sweep configs.
    SynthesisParams serial = common;
    serial.num_threads = 1;
    serial.trial_cache = true;
    const ConfigSample serial_s = sample_config(reps, g, serial);

    const double baseline_per_trial_us =
        baseline_s.trials > 0 ? baseline_s.ms * 1e3 / baseline_s.trials : 0;
    const double per_trial_us =
        serial_s.trials > 0 ? serial_s.ms * 1e3 / serial_s.trials : 0;

    SynthesisResult shape = hlts::core::integrated_synthesis(g, baseline);
    std::printf(
        "%-7s baseline (serial, no cache): %8.1f ms  (%zu mergers, "
        "%lld trials, %.1f us/trial)\n",
        name, baseline_s.ms, shape.trajectory.size(),
        static_cast<long long>(baseline_s.trials), baseline_per_trial_us);

    if (!first_bench) json << ",\n";
    first_bench = false;
    json << "    {\n"
         << "      \"name\": \"" << name << "\",\n"
         << "      \"mergers\": " << shape.trajectory.size() << ",\n"
         << "      \"baseline_serial_nocache_ms\": " << baseline_s.ms << ",\n"
         << "      \"baseline_trials\": " << baseline_s.trials << ",\n"
         << "      \"baseline_per_trial_us\": " << baseline_per_trial_us
         << ",\n"
         << "      \"trials\": " << serial_s.trials << ",\n"
         << "      \"per_trial_us\": " << per_trial_us << ",\n"
         << "      \"configs\": [\n";

    for (std::size_t ci = 0; ci < thread_configs.size(); ++ci) {
      const int threads = thread_configs[ci];
      SynthesisParams p = common;
      p.num_threads = threads;
      p.trial_cache = true;
      std::string sig;
      const double ms =
          threads == 1 ? serial_s.ms : best_of(reps, g, p, &sig);
      if (threads == 1) sig = serial_s.sig;
      const bool identical = sig == serial_s.sig;
      if (!identical) ++not_identical;
      const double speedup = ms > 0 ? baseline_s.ms / ms : 0;
      std::printf(
          "%-7s threads=%-2d cache=on: %8.1f ms   speedup vs baseline %.2fx"
          "   identical_to_serial=%s\n",
          name, threads, ms, speedup, identical ? "yes" : "NO");
      json << "        {\"threads\": " << threads << ", \"trial_cache\": true"
           << ", \"ms\": " << ms << ", \"speedup_vs_baseline\": " << speedup
           << ", \"identical_to_serial\": " << (identical ? "true" : "false")
           << "}" << (ci + 1 < thread_configs.size() ? "," : "") << "\n";
    }
    json << "      ],\n";

    // Fault-sim throughput per packet width over the synthesized design.
    std::size_t num_faults = 0;
    std::size_t num_gates = 0;
    const std::vector<FaultSimSample> fsim_samples = fault_sim_sweep(
        g, reps, verify_serial, &num_faults, &num_gates, &not_identical);
    json << "      \"fault_sim\": {\n"
         << "        \"gates\": " << num_gates << ",\n"
         << "        \"faults\": " << num_faults << ",\n"
         << "        \"widths\": [\n";
    for (std::size_t wi = 0; wi < fsim_samples.size(); ++wi) {
      const FaultSimSample& s = fsim_samples[wi];
      std::printf(
          "%-7s fault-sim width=%-3d: %8.2f ms   %8.1f Mgate-lane-evals/s"
          "   identical=%s%s\n",
          name, s.width, s.ms, s.mgle_per_s, s.identical ? "yes" : "NO",
          verify_serial ? (s.threads4_identical ? " threads4=yes"
                                                : " threads4=NO")
                        : "");
      json << "          {\"width\": " << s.width << ", \"ms\": " << s.ms
           << ", \"mgate_lane_evals_per_s\": " << s.mgle_per_s
           << ", \"identical\": " << (s.identical ? "true" : "false")
           << ", \"threads4_identical\": "
           << (s.threads4_identical ? "true" : "false") << "}"
           << (wi + 1 < fsim_samples.size() ? "," : "") << "\n";
    }
    json << "        ]\n      },\n";

    // Deterministic-ATPG backend comparison on the same design: the hybrid
    // (random + SAT) mode must cover at least what the timeframe (random +
    // PODEM) mode covers -- SAT is complete within the shared frame bound
    // where PODEM's bounded backtracking aborts.
    bool hybrid_ge_timeframe = true;
    const std::vector<AtpgBackendSample> atpg_samples =
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
      json << "        {\"backend\": \"" << s.backend << "\""
           << ", \"fault_coverage\": " << s.coverage
           << ", \"fault_efficiency\": " << s.efficiency
           << ", \"tg_ms\": " << s.tg_ms
           << ", \"detected\": " << s.detected
           << ", \"untestable\": " << s.untestable
           << ", \"aborted\": " << s.aborted
           << ", \"unconfirmed\": " << s.unconfirmed;
      if (s.backend == "hybrid") {
        json << ", \"coverage_ge_timeframe\": "
             << (hybrid_ge_timeframe ? "true" : "false");
      }
      json << "}" << (ai + 1 < atpg_samples.size() ? "," : "") << "\n";
    }
    json << "      ]\n    }";

    if (!committed.empty()) {
      const double old_us = committed_per_trial_us(committed, name);
      if (old_us > 0 && per_trial_us > old_us * 1.2) {
        ++regressions;
        std::fprintf(stderr,
                     "WARNING: %s per-trial time regressed %.1f -> %.1f us "
                     "(>20%% vs %s)\n",
                     name, old_us, per_trial_us, compare_path.c_str());
      }
    }
  }
  json << "\n  ]\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  if (!out) {
    std::cerr << "ERROR: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  if (regressions > 0) {
    std::cerr << "WARNING: " << regressions
              << " benchmark(s) regressed >20% on per-trial time "
                 "(non-gating)\n";
  }
  if (not_identical > 0) {
    std::cerr << "ERROR: " << not_identical
              << " config(s) diverged from the serial reference\n";
    return 1;
  }
  return 0;
}
