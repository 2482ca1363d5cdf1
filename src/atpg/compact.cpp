#include "atpg/compact.hpp"

#include <algorithm>

namespace hlts::atpg {

CompactionResult compact_test_set(const gates::Netlist& nl,
                                  const std::vector<TestSequence>& sequences,
                                  const std::vector<Fault>& faults) {
  CompactionResult result;
  FaultSimulator fsim(nl);

  // Baseline coverage and length.
  std::vector<Fault> remaining = faults;
  for (const TestSequence& seq : sequences) {
    fsim.drop_detected(seq, remaining);
    result.cycles_before += static_cast<long>(seq.size());
  }
  result.faults_covered_before = faults.size() - remaining.size();

  // Reverse-order pass: keep a sequence only if it detects something not
  // yet covered by the sequences kept after it.
  remaining = faults;
  std::vector<std::size_t> kept_reversed;
  for (std::size_t i = sequences.size(); i-- > 0;) {
    const std::size_t dropped = fsim.drop_detected(sequences[i], remaining);
    if (dropped > 0) {
      kept_reversed.push_back(i);
      result.cycles_after += static_cast<long>(sequences[i].size());
    }
  }
  result.kept.assign(kept_reversed.rbegin(), kept_reversed.rend());

  // Confirm preserved coverage (the kept set re-simulated from scratch).
  remaining = faults;
  for (std::size_t i : result.kept) {
    fsim.drop_detected(sequences[i], remaining);
  }
  result.faults_covered_after = faults.size() - remaining.size();
  return result;
}

}  // namespace hlts::atpg
