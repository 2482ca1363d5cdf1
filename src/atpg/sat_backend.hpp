// SAT deterministic backend: CNF time-frame unrolling + CDCL.
//
// One TimeFrameCnf instance (gates/cnf.hpp) encodes the good-machine
// unrolling once; each generate() call adds the target fault's miter cone
// under a fresh activation literal, solves under that single assumption
// with the per-fault conflict budget, and retires the activation literal
// afterwards.  Learned clauses therefore persist across the whole fault
// list -- the assumption-based incremental idiom -- which is what makes
// per-fault SAT affordable on the benchmark netlists.
//
// Retiring a fault deactivates its detection clause but leaves the faulty
// cone's definition clauses in the database, so unit propagation would
// slow down linearly in the number of targets processed (quadratic over a
// run).  Whenever the clause count exceeds twice the good-machine baseline,
// the backend therefore resets the encoding (TimeFrameCnf::reset): every
// fault cone and learnt clause is dropped and the solver is back in the
// exact state the constructor left it in, without re-encoding the good
// machine.  That bounds the garbage carried into any solve, and the memory,
// by one baseline's worth of clauses.  The trigger depends only on clause
// counts and the reset state only on the netlist, so runs stay
// deterministic; the solver's stats keep counting across resets.
//
// Spans: atpg.sat_encode covers the reset check and add_fault,
// atpg.sat_solve the CDCL call, per target (the orchestrator adds
// atpg.rescue around a hybrid PODEM retry).
//
// Outcome mapping: Sat -> Detected with the model's extracted input
// sequence (confirmable by the fault simulator by construction of the
// dual-rail encoding); Unsat -> Untestable within the frame bound (the
// same bound the PODEM backend searches, but a complete proof rather than
// a search-exhaustion claim); Unknown (budget) -> Aborted.
#pragma once

#include "atpg/backend.hpp"
#include "gates/cnf.hpp"

namespace hlts::atpg {

class SatBackend final : public DeterministicBackend {
 public:
  SatBackend(const gates::Netlist& nl, const BackendConfig& config);

  [[nodiscard]] const char* name() const override { return "sat"; }
  [[nodiscard]] BackendResult generate(const Fault& fault) override;
  [[nodiscard]] const BackendStats& stats() const override { return stats_; }

  /// The underlying encoding, for tests (literal numbering, DIMACS dump).
  [[nodiscard]] gates::TimeFrameCnf& cnf() { return cnf_; }

 private:
  const gates::Netlist& nl_;
  gates::TimeFrameCnf cnf_;
  std::int64_t conflict_budget_;
  std::string dump_dir_;
  std::size_t base_clauses_ = 0;  ///< clause count of the fault-free encoding
  BackendStats stats_;
};

}  // namespace hlts::atpg
