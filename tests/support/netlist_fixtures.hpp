// Seeded random gate-level netlists for the ATPG test suites.
#pragma once

#include "gates/netlist.hpp"
#include "util/rng.hpp"

namespace hlts::test_support {

/// A random sequential netlist: `num_inputs` PIs, `num_dffs` flip-flops fed
/// from random signals, `num_gates` combinational gates over the growing
/// signal pool.  Structurally acyclic in the combinational part by
/// construction (gates only reference earlier signals).  With `with_reset`
/// input 0 is named "reset", which the SAT backend and PODEM force
/// 1-then-0.
[[nodiscard]] gates::Netlist random_netlist(Rng& rng, int num_inputs,
                                            int num_gates, int num_dffs,
                                            bool with_reset = false);

}  // namespace hlts::test_support
