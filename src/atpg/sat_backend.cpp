#include "atpg/sat_backend.hpp"

#include <fstream>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace hlts::atpg {

namespace {

int find_reset_index(const gates::Netlist& nl) {
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.gate(nl.inputs()[i]).name == "reset") return static_cast<int>(i);
  }
  return -1;
}

/// fault_name with the path-hostile characters ('/', '#') replaced, for
/// use as a DIMACS dump file name.
std::string dump_file_name(const gates::Netlist& nl, const Fault& f) {
  std::string s = nl.name() + "-" + fault_name(nl, f) + ".cnf";
  for (char& c : s) {
    if (c == '/' || c == '#' || c == ' ') c = '_';
  }
  return s;
}

}  // namespace

SatBackend::SatBackend(const gates::Netlist& nl, const BackendConfig& config)
    : nl_(nl),
      cnf_(nl, config.frames, find_reset_index(nl)),
      conflict_budget_(config.conflict_budget),
      dump_dir_(config.dump_cnf_dir) {
  base_clauses_ = cnf_.solver().num_clauses();
  stats_.cnf_vars = cnf_.solver().num_vars();
  stats_.cnf_clauses = cnf_.solver().num_clauses();
}

BackendResult SatBackend::generate(const Fault& fault) {
  HLTS_REQUIRE(FaultUniverse::is_fault_site(nl_, fault.gate),
               "sat backend: target is not a collapsed fault site");
  util::cdcl::Lit act;
  {
    HLTS_SPAN("atpg.sat_encode");
    if (cnf_.solver().num_clauses() > 2 * base_clauses_) cnf_.reset();
    act = cnf_.add_fault(fault.gate, fault.stuck_at_one);
  }
  if (!dump_dir_.empty()) {
    const std::string path = dump_dir_ + "/" + dump_file_name(nl_, fault);
    std::ofstream os(path);
    if (os) {
      cnf_.dump_dimacs(os, act);
    } else {
      HLTS_WARN("sat backend: cannot write CNF dump " << path);
    }
  }

  util::cdcl::Solver& solver = cnf_.solver();
  const std::uint64_t conflicts_before = solver.stats().conflicts;
  util::cdcl::Status status;
  {
    HLTS_SPAN("atpg.sat_solve");
    status = solver.solve({act}, conflict_budget_);
  }

  BackendResult r;
  switch (status) {
    case util::cdcl::Status::Sat:
      r.status = BackendStatus::Detected;
      r.sequence = cnf_.extract_sequence();
      break;
    case util::cdcl::Status::Unsat:
      r.status = BackendStatus::Untestable;
      break;
    case util::cdcl::Status::Unknown:
      r.status = BackendStatus::Aborted;
      break;
  }
  r.effort = static_cast<long>(solver.stats().conflicts - conflicts_before);
  cnf_.retire_fault(act);

  ++stats_.targets;
  stats_.effort += static_cast<std::uint64_t>(r.effort);
  if (r.status == BackendStatus::Detected) ++stats_.detected;
  if (r.status == BackendStatus::Untestable) ++stats_.untestable;
  if (r.status == BackendStatus::Aborted) ++stats_.aborted;
  const util::cdcl::Stats& ss = solver.stats();
  stats_.sat_conflicts = ss.conflicts;
  stats_.sat_decisions = ss.decisions;
  stats_.sat_propagations = ss.propagations;
  stats_.sat_learned = ss.learned;
  stats_.cnf_vars = solver.num_vars();
  stats_.cnf_clauses = solver.num_clauses();
  return r;
}

}  // namespace hlts::atpg
