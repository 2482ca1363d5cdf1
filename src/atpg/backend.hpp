// Pluggable deterministic-ATPG backends.
//
// The orchestrator (atpg.cpp) used to call the time-frame PODEM search
// directly; DeterministicBackend is the seam extracted from that monolith
// so alternative engines can slot in behind the same contract:
//
//   target fault in  ->  test sequence | untestable proof | abort out,
//
// with a per-fault effort budget fixed at construction and cumulative
// stats per backend instance.  Two backends ship in-tree:
//
//   BackendKind::TimeFrame -- the classic PODEM-style branch-and-bound
//       over the unrolled netlist (atpg/podem.hpp), budgeted in
//       backtracks.  The default, and bit-identical to the pre-seam
//       orchestrator.
//   BackendKind::Sat -- the netlist lowered to CNF over k time frames
//       (gates/cnf.hpp) and decided by the in-repo CDCL solver
//       (util/cdcl.hpp), budgeted in conflicts.  One shared good-machine
//       unrolling is reused across faults (assumption-based incremental
//       solving), so learned clauses accumulate over the whole fault list.
//
// Both backends classify against the *same frame bound*: Untestable means
// "no test of <= frames cycles from the X power-up state exists".  The
// PODEM backend only claims it when its search space is exhausted; the SAT
// backend proves it whenever the CNF is unsatisfiable, which is strictly
// more often.  Detected sequences from either backend are validated by the
// sequential fault simulator before they count toward coverage (the
// orchestrator enforces this; the SAT encoding makes it hold by
// construction).
//
// The backend set is closed: make_backend switches over BackendKind.
// run_atpg resolves its mode string to one or two kinds and drives them
// through DeterministicBackend (hybrid mode runs both).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "atpg/faults.hpp"
#include "atpg/wide_sim.hpp"

namespace hlts::atpg {

enum class BackendKind {
  TimeFrame,  ///< PODEM over the time-frame expansion (the classic path)
  Sat,        ///< CNF unrolling decided by the in-repo CDCL solver
};

enum class BackendStatus {
  Detected,    ///< a candidate test sequence was generated
  Untestable,  ///< proved: no test within the frame bound exists
  Aborted,     ///< per-fault effort budget exhausted
};

struct BackendResult {
  BackendStatus status = BackendStatus::Aborted;
  /// Valid when Detected: per-frame primary-input vectors.  A *candidate*
  /// until the fault simulator confirms it.
  TestSequence sequence;
  /// Effort this target consumed, in the backend's own unit (backtracks
  /// for TimeFrame, CDCL conflicts for Sat).
  long effort = 0;
};

/// Cumulative per-instance counters.  The generic block applies to every
/// backend; the sat_* block stays zero for non-SAT backends.
struct BackendStats {
  std::size_t targets = 0;
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;
  std::uint64_t effort = 0;  ///< summed BackendResult::effort

  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_decisions = 0;
  std::uint64_t sat_propagations = 0;
  std::uint64_t sat_learned = 0;
  /// Hybrid orchestration only: targets the SAT conflict budget aborted
  /// that were retried on the time-frame backend, and how many of those
  /// retries produced a candidate test.
  std::size_t fallback_targets = 0;
  std::size_t fallback_detected = 0;
  int cnf_vars = 0;            ///< solver variables after the last target
  std::size_t cnf_clauses = 0; ///< problem clauses after the last target
};

/// Construction-time parameters shared by every backend.
struct BackendConfig {
  /// Time frames of the unrolled model (>= 1).
  int frames = 1;
  /// TimeFrame: per-fault backtrack budget.
  int backtrack_limit = 64;
  /// Sat: per-fault CDCL conflict budget (<= 0: unbounded).
  std::int64_t conflict_budget = 20000;
  /// Sat: when non-empty, each target's CNF is dumped to
  /// `<dir>/<netlist>-<fault>.cnf` in DIMACS with a comment var map.
  std::string dump_cnf_dir;
};

class DeterministicBackend {
 public:
  virtual ~DeterministicBackend() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Attempts the target fault within the per-fault budget.
  [[nodiscard]] virtual BackendResult generate(const Fault& fault) = 0;
  [[nodiscard]] virtual const BackendStats& stats() const = 0;
};

/// Instantiates the backend of `kind`; throws hlts::Error(Input) when
/// `config.frames` < 1.
[[nodiscard]] std::unique_ptr<DeterministicBackend> make_backend(
    BackendKind kind, const gates::Netlist& nl, const BackendConfig& config);

}  // namespace hlts::atpg
