// ATPG orchestrator: random-phase test generation with fault dropping,
// followed by a pluggable deterministic backend for the stragglers.
//
// Mirrors the paper's assumption that "many ATPG's start by using random
// test generation to cover as many faults as possible and then switch to
// deterministic test generation."  Reports the quantities the paper's
// tables compare: fault coverage, test generation time, and test length in
// clock cycles ("test generated cycle").
//
// The deterministic phase runs behind the atpg::DeterministicBackend seam
// (backend.hpp).  AtpgOptions::backend selects the orchestration mode:
//
//   "timeframe" (default) -- random phase, then BackendKind::TimeFrame
//       (PODEM over the unrolled netlist).  Bit-identical to the
//       pre-backend-seam orchestrator for every option combination.
//   "sat"    -- no random phase; BackendKind::Sat (CNF + in-repo CDCL)
//       targets the *entire* collapsed universe deterministically.  The
//       pure-SAT reference mode: slowest, but classifies every targeted
//       fault as detected or proved-untestable unless the conflict budget
//       aborts it.
//   "hybrid" -- random phase, then BackendKind::Sat on the survivors, and
//       a time-frame (PODEM) retry for any target the SAT conflict budget
//       aborts.  The escalation order is cheapest-first: random vectors
//       cover the easy bulk, SAT resolves the hard tail completely within
//       the frame bound, and the PODEM rescue pass picks up faults whose
//       structural search is cheap but whose CNF happens to be hard for
//       the budgeted CDCL.  The hybrid target loop therefore resolves a
//       superset of what the timeframe mode resolves, which is what makes
//       its coverage dominate per benchmark.  An unconfirmed rescue
//       candidate counts as Aborted, so hybrid keeps the SAT path's
//       unconfirmed == 0 guarantee; a rescue Untestable verdict is a
//       search-exhaustion claim (PODEM-grade), not a proof.
//
// Every deterministic candidate sequence -- from either backend -- is
// validated by the sequential fault simulator before it counts: a fault is
// only ever classified "detected" off the simulator's detected-set, which
// keeps coverage accounting bit-identical across backends and thread
// counts.  Untestable means proved untestable *within the frame
// bound* (no test of <= frames cycles from the X power-up state); the
// frame bound is the same for both backends, so the classifications are
// comparable fault by fault.
//
// AtpgOptions is the only place ATPG settings live: the synthesis options
// (core::AlgorithmOptions) carry none, so callers such as hlts_batch build
// one from their own inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/backend.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/faults.hpp"

namespace hlts::atpg {

// Default effort budgets are deliberately modest, mirroring the bounded
// search of 1990s sequential ATPG: a short random warm-up, then a
// deterministic pass with a small per-fault allowance.  With saturating
// budgets every synthesizable design converges to its functional
// testability limit and the flows stop differentiating; with bounded
// budgets coverage and TG time reflect how *easy* the synthesis made each
// fault -- which is what the paper measures.
struct AtpgOptions {
  std::uint64_t seed = 1;
  /// Cycles per random sequence; 0 = two controller periods.
  int sequence_cycles = 0;
  /// Random sequences generated per round.
  int sequences_per_round = 2;
  /// Stop the random phase after this many consecutive rounds without a new
  /// detection.
  int max_idle_rounds = 1;
  int max_rounds = 3;
  /// Run the deterministic backend on the faults the random phase left.
  bool deterministic_phase = true;
  /// Time frames for the unrolled deterministic model; 0 = two periods.
  int podem_frames = 0;
  int podem_backtrack_limit = 64;
  /// At most this many deterministic targets per run (0 = unlimited); the
  /// 1998-style "give up" budget that keeps wide designs tractable.
  int podem_max_targets = 600;
  /// Apply reverse-order static compaction to the generated test set.
  bool compact = true;

  /// Orchestration mode: "timeframe", "sat" or "hybrid" (see the header
  /// comment for the escalation order).  Empty resolves the
  /// HLTS_ATPG_BACKEND environment knob and falls back to "timeframe".
  std::string backend;
  /// Time frames for the SAT backend's CNF unrolling; 0 resolves
  /// HLTS_SAT_FRAMES, then falls back to two controller periods (the same
  /// default depth as the PODEM unrolling, keeping proofs comparable).
  int sat_frames = 0;
  /// Per-fault CDCL conflict budget before the SAT backend aborts a
  /// target; 0 resolves HLTS_SAT_CONFLICT_BUDGET, then defaults to 20000.
  std::int64_t sat_conflict_budget = 0;
  /// When non-empty: dump each SAT target's CNF into this directory in
  /// DIMACS format with a comment-line var map (offline unsat/abort
  /// debugging; hlts_batch --dump-cnf).
  std::string dump_cnf_dir;
};

struct AtpgResult {
  std::size_t total_faults = 0;
  std::size_t detected_random = 0;
  std::size_t detected_deterministic = 0;
  std::size_t untestable_proved = 0;  ///< proved untestable in the frame bound
  std::size_t aborted = 0;    ///< deterministic targets abandoned on budget
  double fault_coverage = 0;  ///< detected / total
  /// (detected + untestable_proved) / total: credit for resolved faults.
  double fault_efficiency = 0;
  double tg_time_ms = 0;      ///< measured wall time of generation
  long test_cycles = 0;       ///< total cycles of the final (compacted) set
  long uncompacted_cycles = 0;  ///< total cycles before static compaction
  int num_sequences = 0;        ///< sequences in the final set
  std::string backend;          ///< resolved orchestration mode
  /// Deterministic-backend candidates the fault simulator did NOT confirm.
  /// Zero for the SAT backend by construction (the dual-rail encoding);
  /// a frame-bound artifact is possible for the PODEM backend.
  std::size_t unconfirmed = 0;
  BackendStats backend_stats;          ///< deterministic-phase counters
  std::vector<Fault> undetected;       ///< the faults no phase covered
  /// Final per-fault classifications, in universe order: targets the
  /// deterministic backend gave up on (and nothing later covered), and
  /// faults proved untestable (and never fortuitously detected).  The
  /// backend-equivalence tests compare these fault-by-fault across modes.
  std::vector<Fault> aborted_faults;
  std::vector<Fault> untestable_faults;
  std::vector<TestSequence> test_set;  ///< the final test sequences

  [[nodiscard]] std::size_t detected() const {
    return detected_random + detected_deterministic;
  }
};

/// Runs ATPG on a netlist.  `period` is the controller period in cycles
/// (steps + 1); it sizes random sequences and the deterministic unrolling
/// depth.
[[nodiscard]] AtpgResult run_atpg(const gates::Netlist& nl, int period,
                                  const AtpgOptions& options = {});

}  // namespace hlts::atpg
