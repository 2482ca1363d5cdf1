#include "atpg/atpg.hpp"

#include <algorithm>
#include <chrono>

#include "atpg/compact.hpp"
#include "util/error.hpp"
#include "util/knobs.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace hlts::atpg {

namespace {

/// DFT control inputs are driven deliberately, not with random data: a
/// random `hold` would freeze the controller half the time and a random
/// `test_mode`/`bist_mode` would corrupt functional operation.  The random
/// phase idles them (asserting them only rarely, to exercise their own
/// logic); the deterministic phase may still assign them freely.
bool is_dft_control(const std::string& name) {
  return name == "hold" || name == "test_mode" || name == "bist_mode";
}

/// A random sequence: reset in cycle 0, then random data inputs (reset and
/// the DFT controls are re-asserted only with small probability).
TestSequence random_sequence(const gates::Netlist& nl, int cycles, Rng& rng,
                             int reset_index) {
  TestSequence seq;
  for (int c = 0; c < cycles; ++c) {
    TestVector v(nl.inputs().size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (static_cast<int>(i) == reset_index) {
        v[i] = (c == 0) || rng.next_bool(0.02);
      } else if (is_dft_control(nl.gate(nl.inputs()[i]).name)) {
        v[i] = rng.next_bool(0.05);
      } else {
        v[i] = rng.next_bool(0.5);
      }
    }
    seq.push_back(std::move(v));
  }
  return seq;
}

int find_reset(const gates::Netlist& nl) {
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.gate(nl.inputs()[i]).name == "reset") return static_cast<int>(i);
  }
  return -1;
}

/// Resolves AtpgOptions::backend through the HLTS_ATPG_BACKEND knob to one
/// of the three orchestration modes.
std::string resolve_mode(const AtpgOptions& options) {
  std::string mode = options.backend;
  if (mode.empty()) {
    mode = util::knobs::read_string("HLTS_ATPG_BACKEND").value_or("timeframe");
  }
  HLTS_REQUIRE_INPUT(
      mode == "timeframe" || mode == "sat" || mode == "hybrid",
      "AtpgOptions::backend must be timeframe, sat or hybrid (got '" + mode +
          "')");
  return mode;
}

std::int64_t resolve_conflict_budget(const AtpgOptions& options) {
  if (options.sat_conflict_budget > 0) return options.sat_conflict_budget;
  const auto knob = util::knobs::read_int("HLTS_SAT_CONFLICT_BUDGET");
  if (knob.has_value() && *knob > 0) return *knob;
  return 20000;
}

int resolve_sat_frames(const AtpgOptions& options, int period) {
  if (options.sat_frames > 0) return options.sat_frames;
  const auto knob = util::knobs::read_int("HLTS_SAT_FRAMES");
  if (knob.has_value() && *knob > 0) return static_cast<int>(*knob);
  return 2 * period;
}

}  // namespace

AtpgResult run_atpg(const gates::Netlist& nl, int period,
                    const AtpgOptions& options) {
  HLTS_REQUIRE(period >= 1, "controller period must be >= 1");
  HLTS_SPAN("atpg.run");
  const auto t0 = std::chrono::steady_clock::now();

  AtpgResult result;
  result.backend = resolve_mode(options);
  const bool sat_backend = result.backend != "timeframe";
  const bool random_phase = result.backend != "sat";

  FaultUniverse universe = FaultUniverse::collapsed(nl);
  FaultLedger ledger(nl, universe);
  std::vector<Fault> remaining = universe.faults();
  result.total_faults = remaining.size();

  const int reset_index = find_reset(nl);
  const int seq_cycles =
      options.sequence_cycles > 0 ? options.sequence_cycles : 2 * period;
  Rng rng(options.seed);
  FaultSimulator fsim(nl);

  util::count("atpg.faults_total",
              static_cast<std::int64_t>(result.total_faults));

  // --- random phase ----------------------------------------------------------
  if (random_phase) {
    std::vector<Fault> dropped;
    int idle_rounds = 0;
    for (int round = 0; round < options.max_rounds && !remaining.empty();
         ++round) {
      std::size_t dropped_this_round = 0;
      for (int s = 0; s < options.sequences_per_round && !remaining.empty();
           ++s) {
        TestSequence seq = random_sequence(nl, seq_cycles, rng, reset_index);
        dropped.clear();
        const std::size_t n = fsim.drop_detected(seq, remaining, &dropped);
        for (const Fault& f : dropped) {
          ledger.mark(f, FaultStatus::DetectedRandom);
        }
        if (n > 0) {
          dropped_this_round += n;
          result.test_set.push_back(std::move(seq));
        }
      }
      if (dropped_this_round == 0) {
        if (++idle_rounds >= options.max_idle_rounds) break;
      } else {
        idle_rounds = 0;
      }
    }
  }
  result.detected_random = ledger.count(FaultStatus::DetectedRandom);
  util::count("atpg.detected_random",
              static_cast<std::int64_t>(result.detected_random));

  // --- deterministic phase ----------------------------------------------------
  if (options.deterministic_phase && !remaining.empty()) {
    HLTS_SPAN("atpg.deterministic_phase");
    BackendConfig config;
    config.backtrack_limit = options.podem_backtrack_limit;
    config.conflict_budget = resolve_conflict_budget(options);
    config.dump_cnf_dir = options.dump_cnf_dir;
    config.frames = sat_backend
                        ? resolve_sat_frames(options, period)
                        : (options.podem_frames > 0 ? options.podem_frames
                                                    : 2 * period);
    std::unique_ptr<DeterministicBackend> backend =
        make_backend(sat_backend ? BackendKind::Sat : BackendKind::TimeFrame,
                     nl, config);

    // Hybrid escalation: a target the SAT conflict budget aborts is retried
    // on the time-frame backend before it counts as Aborted.  PODEM's
    // structural search resolves some faults cheaply that are hard for
    // bounded CDCL, so the hybrid target loop resolves a superset of what
    // either backend resolves alone.
    std::unique_ptr<DeterministicBackend> rescue;
    if (result.backend == "hybrid") {
      BackendConfig rescue_config;
      rescue_config.backtrack_limit = options.podem_backtrack_limit;
      rescue_config.frames =
          options.podem_frames > 0 ? options.podem_frames : 2 * period;
      rescue = make_backend(BackendKind::TimeFrame, nl, rescue_config);
    }

    // Walk a snapshot; fault-simulating each generated sequence drops
    // fortuitously-detected faults from `remaining` as we go.
    std::vector<Fault> dropped;
    const std::vector<Fault> worklist = remaining;
    int targets = 0;
    for (const Fault& target : worklist) {
      if (options.podem_max_targets > 0 &&
          targets >= options.podem_max_targets) {
        break;
      }
      if (std::find(remaining.begin(), remaining.end(), target) ==
          remaining.end()) {
        continue;  // already detected by an earlier deterministic sequence
      }
      ++targets;
      BackendResult br = backend->generate(target);
      bool rescued = false;
      if (br.status == BackendStatus::Aborted && rescue) {
        HLTS_SPAN("atpg.rescue");
        br = rescue->generate(target);
        rescued = true;
      }
      if (br.status == BackendStatus::Detected) {
        // A candidate only: the sequential fault simulator is the referee.
        dropped.clear();
        fsim.drop_detected(br.sequence, remaining, &dropped);
        for (const Fault& f : dropped) {
          ledger.mark(f, FaultStatus::DetectedDeterministic);
        }
        result.test_set.push_back(br.sequence);
        if (std::find(remaining.begin(), remaining.end(), target) !=
            remaining.end()) {
          // The unrolled model predicted a detection the sequential fault
          // simulator did not confirm.  A frame-bound artifact of the
          // PODEM search; impossible for the SAT backend by construction
          // of the dual-rail encoding (asserted by the sat test suite).
          // An unconfirmed PODEM *rescue* candidate (hybrid mode) counts
          // as Aborted -- the escalation did not resolve the target -- so
          // hybrid keeps the unconfirmed == 0 guarantee of the SAT path.
          if (rescued) {
            ledger.mark(target, FaultStatus::Aborted);
          } else {
            ++result.unconfirmed;
            HLTS_WARN(backend->name()
                      << " detection not confirmed for "
                      << fault_name(nl, target));
          }
        }
      } else if (br.status == BackendStatus::Untestable) {
        // Verdict counter, not a final-state count: a PODEM untestable
        // claim can later be contradicted by a fortuitous detection (the
        // ledger then reports the fault as detected, not untestable).
        ++result.untestable_proved;
        ledger.mark(target, FaultStatus::Untestable);
      } else {
        ledger.mark(target, FaultStatus::Aborted);
      }
    }
    result.backend_stats = backend->stats();
    if (rescue) {
      result.backend_stats.fallback_targets = rescue->stats().targets;
      result.backend_stats.fallback_detected = rescue->stats().detected;
    }
  }
  result.detected_deterministic =
      ledger.count(FaultStatus::DetectedDeterministic);
  result.aborted = ledger.count(FaultStatus::Aborted);
  util::count("atpg.detected_deterministic",
              static_cast<std::int64_t>(result.detected_deterministic));

  // The ledger and the drop-based bookkeeping must agree by construction:
  // every classification above came off the simulator's detected-set.
  HLTS_REQUIRE(ledger.detected() == result.total_faults - remaining.size(),
               "atpg: fault ledger diverged from the remaining-set");

  // --- static compaction -------------------------------------------------------
  for (const TestSequence& seq : result.test_set) {
    result.uncompacted_cycles += static_cast<long>(seq.size());
  }
  if (options.compact && !result.test_set.empty()) {
    HLTS_SPAN("atpg.compaction");
    CompactionResult c =
        compact_test_set(nl, result.test_set, universe.faults());
    std::vector<TestSequence> kept;
    for (std::size_t i : c.kept) kept.push_back(std::move(result.test_set[i]));
    result.test_set = std::move(kept);
  }
  for (const TestSequence& seq : result.test_set) {
    result.test_cycles += static_cast<long>(seq.size());
  }
  result.num_sequences = static_cast<int>(result.test_set.size());

  result.undetected = remaining;
  for (const Fault& f : universe.faults()) {
    const FaultStatus s = ledger.status(f);
    if (s == FaultStatus::Aborted) result.aborted_faults.push_back(f);
    if (s == FaultStatus::Untestable) result.untestable_faults.push_back(f);
  }
  result.fault_coverage =
      result.total_faults == 0
          ? 1.0
          : static_cast<double>(result.detected()) /
                static_cast<double>(result.total_faults);
  result.fault_efficiency =
      result.total_faults == 0
          ? 1.0
          : static_cast<double>(result.detected() + result.untestable_proved) /
                static_cast<double>(result.total_faults);
  result.tg_time_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  return result;
}

}  // namespace hlts::atpg
