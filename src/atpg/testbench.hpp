// Self-checking Verilog testbench generation for an ATPG test set.
//
// Applies every sequence from power-up (all state X in a 4-state
// simulator), drives the primary inputs cycle by cycle, and compares each
// primary output against the good-machine response computed by the in-repo
// three-valued simulator (X responses are not checked).  Together with
// gates::to_structural_verilog this lets the generated tests be replayed in
// any external Verilog simulator.
#pragma once

#include <string>
#include <vector>

#include "atpg/wide_sim.hpp"

namespace hlts::atpg {

/// Renders a testbench module `<dut_name>_tb` instantiating `dut_name`.
[[nodiscard]] std::string to_verilog_testbench(
    const gates::Netlist& nl, const std::string& dut_name,
    const std::vector<TestSequence>& tests);

}  // namespace hlts::atpg
