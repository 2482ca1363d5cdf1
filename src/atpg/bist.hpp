// Built-in self-test session evaluation.
//
// For a netlist elaborated with ElaborateOptions::bist, runs the BIST
// session -- reset, then `cycles` clocks with bist_mode high while the
// on-chip LFSRs pump patterns and the MISR compacts responses -- and
// fault-simulates it.  A fault counts as detected when any primary output
// (including the exposed MISR word) shows a definite difference at any
// cycle, which subsumes the end-of-session signature comparison.
#pragma once

#include "atpg/fault_sim.hpp"

namespace hlts::atpg {

struct BistResult {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  double coverage = 0.0;
  int cycles = 0;
};

/// Runs a BIST session of the given length against the collapsed fault
/// universe.  The netlist must have `reset` and `bist_mode` inputs.
[[nodiscard]] BistResult run_bist(const gates::Netlist& nl, int cycles);

}  // namespace hlts::atpg
