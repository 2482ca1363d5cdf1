// Width-templated parallel three-valued gate-level simulator.
//
// WideSimulator<W> carries 64*W lanes per gate: lane 0 is the fault-free
// machine, lanes 1..64*W-1 carry faulty copies (parallel-fault
// simulation).  Values are three-valued (0 / 1 / X) in the classic
// two-plane encoding -- for each gate, plane `one` has a lane bit set when
// that lane's value is 1, plane `zero` when it is 0; neither set means X.
// Flip-flops power up X: data-path registers have no reset, so a test must
// *initialize* the machine through functional paths before it can detect
// anything -- the sequential-ATPG reality the paper's testability metrics
// (SC/SO) model.
//
// A fault is detected only by the conservative criterion: some primary
// output where the good machine and the faulty machine both have binary
// values and they differ.
//
// The gate equations are identical at every width (each lane is evaluated
// independently), so the detected-lane packet of WideSimulator<W> restricted
// to any lane equals WideSimulator<1>'s result for a batch containing just
// that lane's fault -- the lane contract the two users rely on.  W=4 is
// FaultSimulator's fault-dropping engine: 256 lanes per gate as flat
// uint64_t loops the compiler autovectorizes.  W=1 is the single-word
// simulator the testbench generator and the tests read good-machine values
// from (`plane_one(g).lane(0)`).
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/faults.hpp"
#include "atpg/packet.hpp"
#include "gates/netlist.hpp"

namespace hlts::atpg {

/// Primary-input values for one clock cycle, in gates::Netlist::inputs()
/// order.  Primary inputs are always binary (the tester drives them).
using TestVector = std::vector<bool>;
/// A clocked test sequence, applied from power-up (all state X).
using TestSequence = std::vector<TestVector>;

template <int W>
class WideSimulator {
 public:
  static constexpr int kLanes = Packet<W>::kLanes;

  explicit WideSimulator(const gates::Netlist& nl);

  /// Injects `fault` into lane `lane` (1..kLanes-1).  Lane 0 must stay
  /// fault-free.
  void inject(int lane, const Fault& fault);
  /// Removes all injected faults.
  void clear_faults();

  /// Returns all flip-flops to the unknown (X) power-up state.
  void reset_state();

  /// Applies one input vector, evaluates the combinational logic and clocks
  /// the flip-flops.  Returns the set of lanes detected this cycle: a
  /// primary output where both the good and the faulty value are binary
  /// and differ.  Lane 0 is never reported.
  Packet<W> step(const TestVector& inputs);

  /// Value planes of a gate after the last evaluation.
  [[nodiscard]] const Packet<W>& plane_one(gates::GateId g) const {
    return one_[g];
  }
  [[nodiscard]] const Packet<W>& plane_zero(gates::GateId g) const {
    return zero_[g];
  }

  /// Cumulative gate-lane evaluations: every levelized-gate evaluation in
  /// step() counts kLanes lane-evals.  Feeds the fault-sim throughput
  /// metric (Mgate-lane-evals/s) in the benches.
  [[nodiscard]] std::uint64_t gate_lane_evals() const { return lane_evals_; }

  [[nodiscard]] const gates::Netlist& netlist() const { return nl_; }

 private:
  void apply_mask(gates::GateId g);

  const gates::Netlist& nl_;
  IndexVec<gates::GateId, Packet<W>> one_, zero_;              // comb values
  IndexVec<gates::GateId, Packet<W>> state_one_, state_zero_;  // DFFs
  IndexVec<gates::GateId, Packet<W>> sa1_mask_, sa0_mask_;
  std::vector<gates::GateId> masked_gates_;
  std::uint64_t lane_evals_ = 0;
};

// Instantiated in wide_sim.cpp for the two widths in use (64 and 256 lanes).
extern template class WideSimulator<1>;
extern template class WideSimulator<4>;

}  // namespace hlts::atpg
