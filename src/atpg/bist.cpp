#include "atpg/bist.hpp"

#include "util/error.hpp"

namespace hlts::atpg {

BistResult run_bist(const gates::Netlist& nl, int cycles) {
  HLTS_REQUIRE(cycles >= 1, "BIST session needs at least one cycle");
  int reset_index = -1;
  int bist_index = -1;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    const std::string& name = nl.gate(nl.inputs()[i]).name;
    if (name == "reset") reset_index = static_cast<int>(i);
    if (name == "bist_mode") bist_index = static_cast<int>(i);
  }
  HLTS_REQUIRE(reset_index >= 0 && bist_index >= 0,
               "netlist was not elaborated with BIST support");

  TestSequence session;
  for (int c = 0; c <= cycles; ++c) {
    TestVector v(nl.inputs().size(), false);
    v[static_cast<std::size_t>(reset_index)] = (c == 0);
    v[static_cast<std::size_t>(bist_index)] = true;
    session.push_back(std::move(v));
  }

  FaultUniverse universe = FaultUniverse::collapsed(nl);
  std::vector<Fault> remaining = universe.faults();
  FaultSimulator fsim(nl);
  fsim.drop_detected(session, remaining);

  BistResult result;
  result.total_faults = universe.size();
  result.detected = universe.size() - remaining.size();
  result.coverage = result.total_faults == 0
                        ? 1.0
                        : static_cast<double>(result.detected) /
                              static_cast<double>(result.total_faults);
  result.cycles = cycles;
  return result;
}

}  // namespace hlts::atpg
