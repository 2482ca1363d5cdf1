// Static test-set compaction: reverse-order fault simulation.
//
// Sequences generated late in an ATPG run (deterministic, targeted) tend to
// fortuitously cover the faults that earlier random sequences were kept
// for; simulating the test set in reverse order of generation and keeping
// only sequences that detect a not-yet-covered fault shrinks the test
// length ("test generated cycle") without losing coverage -- the classic
// static compaction every production flow applies.
#pragma once

#include <vector>

#include "atpg/fault_sim.hpp"

namespace hlts::atpg {

struct CompactionResult {
  /// Indices (into the input test set) of the kept sequences, in original
  /// order.
  std::vector<std::size_t> kept;
  std::size_t faults_covered_before = 0;
  std::size_t faults_covered_after = 0;
  long cycles_before = 0;
  long cycles_after = 0;
};

/// Compacts `sequences` against `faults` (typically the full collapsed
/// universe) in one reverse-order fault-simulation pass.  Coverage is
/// preserved by construction: a sequence is dropped only if every fault it
/// detects is also detected by a kept sequence, so faults_covered_after
/// equals faults_covered_before.
[[nodiscard]] CompactionResult compact_test_set(
    const gates::Netlist& nl, const std::vector<TestSequence>& sequences,
    const std::vector<Fault>& faults);

}  // namespace hlts::atpg
