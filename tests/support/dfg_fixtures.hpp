// Shared DFG fixtures for the tests: the seeded random-design generator the
// fuzz and incremental-layer tests draw from, and the reference interpreter
// the functional-equivalence tests check elaborated machines against.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "dfg/dfg.hpp"

namespace hlts::test_support {

/// Random DAG generator: `num_ops` operations over `num_inputs` primary
/// inputs, arithmetic-biased kind mix; every dead-end value becomes an
/// output (no dead code), a random subset of them registered.
[[nodiscard]] dfg::Dfg random_dfg(std::uint64_t seed, int num_inputs,
                                  int num_ops);

/// Reference interpreter for a DFG on uint64 words masked to `bits`:
/// returns the value of every input and operation result by name.
[[nodiscard]] std::map<std::string, std::uint64_t> interpret(
    const dfg::Dfg& g, const std::map<std::string, std::uint64_t>& inputs,
    int bits);

}  // namespace hlts::test_support
