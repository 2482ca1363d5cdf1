// Deterministic sequential ATPG: PODEM over a bounded time-frame expansion.
//
// The sequential circuit is unrolled for F frames starting from the
// unknown power-up state (all flip-flops X) with the reset input forced
// high in frame 0 and low afterwards, making the unrolled model purely
// combinational.  The target fault is present in every frame.  Values are
// good/faulty 3-valued pairs (the D-calculus: D = good 1 / faulty 0); a
// test must justify register initialization through functional paths
// before it can excite and propagate the fault.
//
// Classic PODEM search: pick an objective (fault excitation, then D-drive
// through the D-frontier), backtrace through X-valued nets to an
// assignable primary input, imply, and branch with a bounded backtrack
// budget.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/faults.hpp"
#include "atpg/wide_sim.hpp"

namespace hlts::atpg {

enum class PodemStatus {
  Detected,    ///< a test sequence was generated
  Untestable,  ///< search space exhausted within the frame bound
  Aborted,     ///< backtrack limit hit
};

struct PodemResult {
  PodemStatus status = PodemStatus::Aborted;
  /// Valid when Detected: per-frame primary-input vectors (unassigned
  /// inputs filled with zeros).
  TestSequence sequence;
  int backtracks = 0;
};

class TimeFramePodem {
 public:
  /// Builds the unrolled model.  `frames` >= 1.
  TimeFramePodem(const gates::Netlist& nl, int frames);

  /// Attempts to generate a test for `fault`.
  [[nodiscard]] PodemResult generate(const Fault& fault, int backtrack_limit);

  /// Validation hook (used by tests): implies the primary-input values of
  /// `sequence` into the unrolled model and reports whether the fault is
  /// detected there.  Must agree with the sequential fault simulator
  /// whenever the sequence fits in the frame bound.
  [[nodiscard]] bool check_sequence(const Fault& fault,
                                    const TestSequence& sequence);

 private:
  struct Node;  // defined in the .cpp
  class Impl;

  const gates::Netlist& nl_;
  int frames_;
  int reset_index_ = -1;  ///< position of the "reset" input, -1 if absent
};

}  // namespace hlts::atpg
