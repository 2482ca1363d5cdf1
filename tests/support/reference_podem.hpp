// Frozen reference implementation of time-frame PODEM (atpg/podem.hpp).
//
// This is the straightforward version the production search was derived
// from.  Every restart of generate() builds a fresh model: the static
// justifiability analysis, the fault cone, a full implication of the
// unrolled netlist.  Every decision rescans the whole fault cone for the
// D-frontier (twice) and runs the X-path search over a freshly allocated
// visited set.  Production atpg::TimeFramePodem must match it bit for bit
// -- status, backtrack count and test sequence for generate(), the verdict
// for check_sequence() -- and the PodemDifferential tests compare against
// this copy, never against the code under test.
#pragma once

#include "atpg/faults.hpp"
#include "atpg/podem.hpp"
#include "gates/netlist.hpp"

namespace hlts::test_support {

/// atpg::TimeFramePodem as a from-scratch model per restart.
class ReferencePodem {
 public:
  ReferencePodem(const gates::Netlist& nl, int frames);

  [[nodiscard]] atpg::PodemResult generate(const atpg::Fault& fault,
                                           int backtrack_limit);

  [[nodiscard]] bool check_sequence(const atpg::Fault& fault,
                                    const atpg::TestSequence& sequence);

 private:
  class Impl;

  const gates::Netlist& nl_;
  int frames_;
  int reset_index_ = -1;  ///< position of the "reset" input, -1 if absent
};

}  // namespace hlts::test_support
