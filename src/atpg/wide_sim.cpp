#include "atpg/wide_sim.hpp"

#include "util/error.hpp"

namespace hlts::atpg {

using gates::GateId;
using gates::GateKind;

template <int W>
WideSimulator<W>::WideSimulator(const gates::Netlist& nl) : nl_(nl) {
  nl.validate();
  one_.assign(nl.num_gates(), Packet<W>::zero());
  zero_.assign(nl.num_gates(), Packet<W>::zero());
  state_one_.assign(nl.num_gates(), Packet<W>::zero());
  state_zero_.assign(nl.num_gates(), Packet<W>::zero());
  sa1_mask_.assign(nl.num_gates(), Packet<W>::zero());
  sa0_mask_.assign(nl.num_gates(), Packet<W>::zero());
}

template <int W>
void WideSimulator<W>::inject(int lane, const Fault& fault) {
  HLTS_REQUIRE(lane >= 1 && lane < kLanes,
               "fault lane out of range for this packet width");
  if (fault.stuck_at_one) {
    sa1_mask_[fault.gate].set_lane(lane);
  } else {
    sa0_mask_[fault.gate].set_lane(lane);
  }
  masked_gates_.push_back(fault.gate);
}

template <int W>
void WideSimulator<W>::clear_faults() {
  for (GateId g : masked_gates_) {
    sa1_mask_[g] = Packet<W>::zero();
    sa0_mask_[g] = Packet<W>::zero();
  }
  masked_gates_.clear();
}

template <int W>
void WideSimulator<W>::reset_state() {
  for (GateId d : nl_.dffs()) {
    state_one_[d] = Packet<W>::zero();
    state_zero_[d] = Packet<W>::zero();  // X: neither plane set
  }
}

template <int W>
inline void WideSimulator<W>::apply_mask(GateId g) {
  const Packet<W>& s1 = sa1_mask_[g];
  const Packet<W>& s0 = sa0_mask_[g];
  if (!(s1 | s0).any()) return;
  one_[g] = (one_[g] | s1) & ~s0;
  zero_[g] = (zero_[g] | s0) & ~s1;
}

template <int W>
Packet<W> WideSimulator<W>::step(const TestVector& inputs) {
  HLTS_REQUIRE(inputs.size() == nl_.inputs().size(),
               "test vector width mismatch");

  // Sources.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    GateId g = nl_.inputs()[i];
    one_[g] = Packet<W>::broadcast(inputs[i]);
    zero_[g] = ~one_[g];
    apply_mask(g);
  }
  for (GateId g : nl_.gate_ids()) {
    const GateKind kind = nl_.gate(g).kind;
    if (kind == GateKind::Const0) {
      one_[g] = Packet<W>::zero();
      zero_[g] = Packet<W>::ones();
      apply_mask(g);
    } else if (kind == GateKind::Const1) {
      one_[g] = Packet<W>::ones();
      zero_[g] = Packet<W>::zero();
      apply_mask(g);
    }
  }
  for (GateId d : nl_.dffs()) {
    one_[d] = state_one_[d];
    zero_[d] = state_zero_[d];
    apply_mask(d);
  }

  // Combinational evaluation (two-plane three-valued logic).
  for (GateId g : nl_.levelized()) {
    const gates::Gate& gate = nl_.gate(g);
    Packet<W> v1 = Packet<W>::zero();
    Packet<W> v0 = Packet<W>::zero();
    switch (gate.kind) {
      case GateKind::Buf:
      case GateKind::Output:
        v1 = one_[gate.inputs[0]];
        v0 = zero_[gate.inputs[0]];
        break;
      case GateKind::Not:
        v1 = zero_[gate.inputs[0]];
        v0 = one_[gate.inputs[0]];
        break;
      case GateKind::And:
      case GateKind::Nand: {
        v1 = Packet<W>::ones();
        v0 = Packet<W>::zero();
        for (GateId in : gate.inputs) {
          v1 &= one_[in];
          v0 |= zero_[in];
        }
        if (gate.kind == GateKind::Nand) std::swap(v1, v0);
        break;
      }
      case GateKind::Or:
      case GateKind::Nor: {
        v1 = Packet<W>::zero();
        v0 = Packet<W>::ones();
        for (GateId in : gate.inputs) {
          v1 |= one_[in];
          v0 &= zero_[in];
        }
        if (gate.kind == GateKind::Nor) std::swap(v1, v0);
        break;
      }
      case GateKind::Xor:
      case GateKind::Xnor: {
        const Packet<W>& a1 = one_[gate.inputs[0]];
        const Packet<W>& a0 = zero_[gate.inputs[0]];
        const Packet<W>& b1 = one_[gate.inputs[1]];
        const Packet<W>& b0 = zero_[gate.inputs[1]];
        v1 = (a1 & b0) | (a0 & b1);
        v0 = (a1 & b1) | (a0 & b0);
        if (gate.kind == GateKind::Xnor) std::swap(v1, v0);
        break;
      }
      case GateKind::Mux: {
        const Packet<W>& s1 = one_[gate.inputs[0]];
        const Packet<W>& s0 = zero_[gate.inputs[0]];
        const Packet<W>& a1 = one_[gate.inputs[1]];
        const Packet<W>& a0 = zero_[gate.inputs[1]];
        const Packet<W>& b1 = one_[gate.inputs[2]];
        const Packet<W>& b0 = zero_[gate.inputs[2]];
        v1 = (s0 & a1) | (s1 & b1) | (a1 & b1);
        v0 = (s0 & a0) | (s1 & b0) | (a0 & b0);
        break;
      }
      default:
        continue;  // sources handled above
    }
    one_[g] = v1;
    zero_[g] = v0;
    apply_mask(g);
    lane_evals_ += static_cast<std::uint64_t>(kLanes);
  }

  // Detection: good and faulty both binary and different.  The good value
  // is lane 0 = bit 0 of word 0, broadcast across the packet.
  Packet<W> diff = Packet<W>::zero();
  for (GateId o : nl_.outputs()) {
    const Packet<W> g1 = Packet<W>::broadcast(one_[o].w[0] & 1);
    const Packet<W> g0 = Packet<W>::broadcast(zero_[o].w[0] & 1);
    diff |= (g1 & zero_[o]) | (g0 & one_[o]);
  }

  // Clock edge.
  for (GateId d : nl_.dffs()) {
    state_one_[d] = one_[nl_.gate(d).inputs[0]];
    state_zero_[d] = zero_[nl_.gate(d).inputs[0]];
  }
  diff.w[0] &= ~std::uint64_t{1};  // never report the good machine
  return diff;
}

template class WideSimulator<1>;
template class WideSimulator<4>;

}  // namespace hlts::atpg
