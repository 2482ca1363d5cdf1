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
//
// Incremental state.  The unrolled model is built once per instance, on
// the first call: the node arrays, the static justifiability analysis and
// the good machine implied from the forced reset (no fault depends on
// them).  Every value change goes onto one undo trail.  A target adds the
// faulty values of its fault cone on top of that good base and records
// the trail length as its base mark; each restart of the search undoes to
// the base mark, and the next target undoes to the empty trail.  The
// D-frontier is kept as per-node flags plus a sorted node list: set_value
// and undo_to mark every fault-cone node they touch, and the next query
// re-derives membership for exactly those nodes and their cone fanouts.
// Invariant: once the touched nodes are drained, the frontier flags and
// list equal a full rescan of the cone -- so an undo_to restores the
// frontier of the state it returns to, the base mark's included.
//
// Flat walks.  Every walk (implication, frontier refresh, X-path search,
// cone, objectives, backtrace) reads a gates::GateTable built with the
// model: kind bytes, CSR inputs and CSR fanouts whose DFF entries carry a
// frame-crossing bit.  A node id is frame << shift | gate, the stride
// being the gate count rounded up to a power of two, so neither a Gate
// struct nor a division is needed per node, and ids still ascend in
// (frame, gate) order.
//
// D-change rule.  A fanout's frontier membership reads its own value (a
// change there touches the fanout itself) and whether its inputs carry a
// D.  So the refresh re-derives a touched node's fanouts only when the
// node's D status differs from the one recorded at its last refresh (a
// flag bit, cleared with the cone when a target is prepared: the good
// base carries no D).  A value that changed and changed back, or moved
// between X and a non-D value, leaves the fanouts as they were.
//
// Ordered cone.  Every edge of the unrolled model ascends in node id (a
// combinational input has the smaller gate id, a DFF edge enters the next
// frame), so one ascending pass over the cone flags from the site's
// frame-0 node, closing each flagged node's fanouts as it goes, lists the
// cone sorted without a sort.
#pragma once

#include <cstdint>
#include <memory>
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
  /// Binds the netlist; the unrolled model is built on first use.
  /// `frames` >= 1.
  TimeFramePodem(const gates::Netlist& nl, int frames);
  ~TimeFramePodem();

  /// Attempts to generate a test for `fault`.
  [[nodiscard]] PodemResult generate(const Fault& fault, int backtrack_limit);

  /// Validation hook (used by tests): implies the primary-input values of
  /// `sequence` into the unrolled model and reports whether the fault is
  /// detected there.  Must agree with the sequential fault simulator
  /// whenever the sequence fits in the frame bound.
  [[nodiscard]] bool check_sequence(const Fault& fault,
                                    const TestSequence& sequence);

 private:
  class Impl;
  Impl& impl();

  const gates::Netlist& nl_;
  int frames_;
  std::unique_ptr<Impl> impl_;  ///< built by the first impl() call
};

}  // namespace hlts::atpg
