#include "atpg/compact.hpp"

namespace hlts::atpg {

CompactionResult compact_test_set(const gates::Netlist& nl,
                                  const std::vector<TestSequence>& sequences,
                                  const std::vector<Fault>& faults) {
  CompactionResult result;
  FaultSimulator fsim(nl);

  // Reverse-order pass: keep a sequence only if it detects something not
  // yet covered by the sequences kept after it.  Every sequence is
  // simulated from reset, so a fault is detected by a sequence whatever
  // else was simulated before it: the pass drops every fault some sequence
  // detects, each by a kept sequence, and the kept set covers exactly what
  // the whole set covers.
  std::vector<Fault> remaining = faults;
  std::vector<std::size_t> kept_reversed;
  for (std::size_t i = sequences.size(); i-- > 0;) {
    const long cycles = static_cast<long>(sequences[i].size());
    result.cycles_before += cycles;
    if (fsim.drop_detected(sequences[i], remaining) > 0) {
      kept_reversed.push_back(i);
      result.cycles_after += cycles;
    }
  }
  result.kept.assign(kept_reversed.rbegin(), kept_reversed.rend());
  result.faults_covered_before = faults.size() - remaining.size();
  result.faults_covered_after = result.faults_covered_before;
  return result;
}

}  // namespace hlts::atpg
