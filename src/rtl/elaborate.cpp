#include "rtl/elaborate.hpp"

#include <algorithm>
#include <map>

#include "gates/simplify.hpp"
#include "gates/wordlib.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace hlts::rtl {

using gates::GateId;
using gates::GateKind;
using gates::Netlist;
using gates::Word;

namespace {

/// The combinational core of one FU for one operation kind.
Word fu_core(Netlist& nl, dfg::OpKind kind, const Word& a, const Word& b,
             int bits, ArithStyle style) {
  using dfg::OpKind;
  const bool fast = style == ArithStyle::Fast;
  switch (kind) {
    case OpKind::Add:
      return fast ? gates::kogge_stone_add(nl, a, b)
                  : gates::ripple_add(nl, a, b);
    case OpKind::Sub:
      return fast ? gates::kogge_stone_sub(nl, a, b)
                  : gates::ripple_sub(nl, a, b);
    case OpKind::Mul:
      return fast ? gates::wallace_multiply(nl, a, b)
                  : gates::array_multiply(nl, a, b);
    case OpKind::Div:
      return gates::array_divide(nl, a, b);
    case OpKind::Less:
      return gates::bit_to_word(nl, gates::less_than(nl, a, b), bits);
    case OpKind::Greater:
      return gates::bit_to_word(nl, gates::greater_than(nl, a, b), bits);
    case OpKind::Equal:
      return gates::bit_to_word(nl, gates::equal(nl, a, b), bits);
    case OpKind::And:
      return gates::word_and(nl, a, b);
    case OpKind::Or:
      return gates::word_or(nl, a, b);
    case OpKind::Xor:
      return gates::word_xor(nl, a, b);
    case OpKind::Not:
      return gates::word_not(nl, a);
    case OpKind::ShiftLeft: {
      // Shift by one (the DFG kinds are shift-by-constant placeholders).
      Word out = gates::zero_word(nl, bits);
      for (int i = 1; i < bits; ++i) out[i] = a[i - 1];
      return out;
    }
    case OpKind::ShiftRight: {
      Word out = gates::zero_word(nl, bits);
      for (int i = 0; i + 1 < bits; ++i) out[i] = a[i + 1];
      return out;
    }
    case OpKind::Move:
      return a;
  }
  throw Error("fu_core: unhandled op kind", ErrorKind::Internal);
}

/// Fibonacci-LFSR feedback taps (bit indices) for common widths; the
/// fallback pair still cycles, just with a shorter period.
std::vector<int> lfsr_taps(int bits) {
  switch (bits) {
    case 2: return {1, 0};
    case 3: return {2, 1};
    case 4: return {3, 2};
    case 5: return {4, 2};
    case 6: return {5, 4};
    case 7: return {6, 5};
    case 8: return {7, 5, 4, 3};
    case 10: return {9, 6};
    case 12: return {11, 10, 9, 3};
    case 16: return {15, 14, 12, 3};
    default: return {bits - 1, bits - 2};
  }
}

/// One per-port LFSR: DFF word, shifted with XOR feedback, loaded with a
/// port-specific nonzero seed while reset is high.
Word make_lfsr(Netlist& nl, GateId reset, int bits, unsigned seed,
               const std::string& name) {
  Word state(bits);
  for (int i = 0; i < bits; ++i) {
    state[i] = nl.add_dff(name + "[" + std::to_string(i) + "]");
  }
  std::vector<GateId> tap_bits;
  for (int t : lfsr_taps(bits)) tap_bits.push_back(state[t]);
  GateId fb = tap_bits[0];
  for (std::size_t i = 1; i < tap_bits.size(); ++i) {
    fb = nl.add_gate(GateKind::Xor, {fb, tap_bits[i]});
  }
  for (int i = 0; i < bits; ++i) {
    GateId shifted = i == 0 ? fb : state[i - 1];
    GateId seed_bit = ((seed >> i) & 1) ? nl.const1() : nl.const0();
    nl.connect_dff(state[i],
                   nl.add_gate(GateKind::Mux, {reset, shifted, seed_bit}));
  }
  return state;
}

}  // namespace

Elaboration elaborate(const RtlDesign& design, const ElaborateOptions& options) {
  design.validate();
  Elaboration e;
  Netlist& nl = e.netlist;
  const int bits = design.bits();
  const int steps = design.steps();

  // --- primary inputs --------------------------------------------------------
  e.reset = nl.add_input("reset");
  if (options.test_hold) {
    e.hold = nl.add_input("hold");
  }
  const bool any_control_point =
      std::any_of(options.test_points.begin(), options.test_points.end(),
                  [](const RtlTestPoint& tp) { return tp.control; });
  GateId test_mode;
  Word tp_in;
  if (any_control_point) {
    test_mode = nl.add_input("test_mode");
    tp_in = gates::add_input_word(nl, "tp_in", bits);
  }
  GateId bist_mode;
  if (options.bist) {
    bist_mode = nl.add_input("bist_mode");
  }
  for (std::size_t i = 0; i < design.inports().size(); ++i) {
    const RtlPort& p = design.inports()[i];
    Word external = gates::add_input_word(nl, "in_" + p.name, bits);
    if (options.bist) {
      // In BIST mode the port is driven by its own seeded LFSR.
      Word lfsr = make_lfsr(nl, e.reset, bits,
                            static_cast<unsigned>(i * 37 + 11),
                            "lfsr_" + p.name);
      external = gates::mux_word(nl, bist_mode, external, lfsr);
    }
    e.inport_words.push_back(std::move(external));
  }

  // --- controller: one-hot ring counter with synchronous reset ---------------
  GateId not_reset = nl.add_gate(GateKind::Not, {e.reset}, "not_reset");
  std::vector<GateId> state_dffs;
  for (int i = 0; i <= steps; ++i) {
    state_dffs.push_back(nl.add_dff(cat("state", std::to_string(i))));
    e.state.push_back(state_dffs.back());
  }
  for (int i = 0; i <= steps; ++i) {
    const GateId prev = state_dffs[(i + steps) % (steps + 1)];
    GateId advanced = prev;
    if (options.test_hold) {
      // Test plan: hold=1 freezes the controller in its current step.
      advanced = nl.add_gate(GateKind::Mux, {e.hold, prev, state_dffs[i]});
    }
    GateId next = nl.add_gate(GateKind::And, {not_reset, advanced});
    if (i == 0) {
      next = nl.add_gate(GateKind::Or, {e.reset, next});
    }
    nl.connect_dff(state_dffs[i], next);
  }

  // --- register words (created first: FUs read them) ------------------------
  e.reg_words.resize(design.regs().size());
  for (RtlRegId r : id_range<RtlRegId>(design.regs().size())) {
    Word w(bits);
    for (int i = 0; i < bits; ++i) {
      w[i] = nl.add_dff(
          cat("r", std::to_string(r.value()), "[", std::to_string(i), "]"));
    }
    e.reg_words[r] = w;
  }

  // --- functional units -------------------------------------------------------
  IndexVec<RtlFuId, Word> fu_out(design.fus().size());
  auto operand_word = [&](const Operand& o) -> const Word& {
    if (o.kind == Operand::Kind::Port) return e.inport_words[o.port_index];
    return e.reg_words[o.reg];
  };

  for (RtlFuId f : id_range<RtlFuId>(design.fus().size())) {
    const RtlFu& fu = design.fus()[f];
    // Operand steering per port.
    std::vector<GateId> enables;
    std::vector<Word> port0, port1;
    for (const FuOp& op : fu.ops) {
      enables.push_back(e.state[op.step]);
      port0.push_back(operand_word(op.in0));
      port1.push_back(dfg::op_arity(op.kind) > 1 ? operand_word(op.in1)
                                                 : gates::zero_word(nl, bits));
    }
    Word a = gates::onehot_select(nl, enables, port0, bits);
    Word b = gates::onehot_select(nl, enables, port1, bits);

    // One core per distinct kind used on this FU, selected by step group.
    std::map<dfg::OpKind, std::vector<GateId>> kind_steps;
    for (const FuOp& op : fu.ops) {
      kind_steps[op.kind].push_back(e.state[op.step]);
    }
    if (kind_steps.size() == 1) {
      fu_out[f] = fu_core(nl, kind_steps.begin()->first, a, b, bits, options.arith);
    } else {
      std::vector<GateId> kind_enable;
      std::vector<Word> kind_result;
      for (const auto& [kind, states] : kind_steps) {
        GateId en = states.size() == 1 ? states[0]
                                       : nl.add_gate(GateKind::Or, states);
        kind_enable.push_back(en);
        kind_result.push_back(fu_core(nl, kind, a, b, bits, options.arith));
      }
      fu_out[f] = gates::onehot_select(nl, kind_enable, kind_result, bits);
    }
  }

  // --- register write steering ------------------------------------------------
  for (RtlRegId r : id_range<RtlRegId>(design.regs().size())) {
    const RtlReg& reg = design.regs()[r];
    std::vector<GateId> enables;
    std::vector<Word> values;
    for (const RegWrite& w : reg.writes) {
      enables.push_back(e.state[w.step]);
      values.push_back(w.from_port ? e.inport_words[w.port_index]
                                   : fu_out[w.fu]);
    }
    GateId write_any = enables.size() == 1 ? enables[0]
                                           : nl.add_gate(GateKind::Or, enables);
    Word selected = gates::onehot_select(nl, enables, values, bits);
    // No reset on data-path registers (as in real area-conscious data
    // paths): they power up unknown and are initialized through functional
    // writes only.
    Word held = gates::mux_word(nl, write_any, e.reg_words[r], selected);
    // DFT control point: in test mode the register loads the test bus.
    const bool is_control_point = std::any_of(
        options.test_points.begin(), options.test_points.end(),
        [&](const RtlTestPoint& tp) { return tp.control && tp.reg == r; });
    if (is_control_point) {
      held = gates::mux_word(nl, test_mode, held, tp_in);
    }
    for (int i = 0; i < bits; ++i) {
      nl.connect_dff(e.reg_words[r][i], held[i]);
    }
  }

  // --- DFT observation points ---------------------------------------------------
  for (std::size_t i = 0; i < options.test_points.size(); ++i) {
    const RtlTestPoint& tp = options.test_points[i];
    if (tp.control) continue;
    gates::add_output_word(nl, e.reg_words[tp.reg],
                           cat("tp_obs", std::to_string(i)));
  }

  // --- primary outputs ---------------------------------------------------------
  std::vector<bool> port_driven(design.outports().size(), false);
  std::vector<Word> po_words;
  for (RtlRegId r : id_range<RtlRegId>(design.regs().size())) {
    const RtlReg& reg = design.regs()[r];
    if (reg.outport_index < 0) continue;
    gates::add_output_word(nl, e.reg_words[r],
                           "out_" + design.outports()[reg.outport_index].name);
    po_words.push_back(e.reg_words[r]);
    port_driven[reg.outport_index] = true;
  }
  for (RtlFuId f : id_range<RtlFuId>(design.fus().size())) {
    for (const FuOp& op : design.fus()[f].ops) {
      if (op.outport_index < 0) continue;
      // Port-direct result: valid (and observed) only during its step.
      Word gated(bits);
      for (int i = 0; i < bits; ++i) {
        gated[i] = nl.add_gate(GateKind::And, {e.state[op.step], fu_out[f][i]});
      }
      gates::add_output_word(
          nl, gated, "out_" + design.outports()[op.outport_index].name);
      po_words.push_back(gated);
      port_driven[op.outport_index] = true;
    }
  }

  // --- BIST response compaction (MISR) -----------------------------------------
  if (options.bist) {
    Word folded = po_words.empty() ? gates::zero_word(nl, bits) : po_words[0];
    for (std::size_t i = 1; i < po_words.size(); ++i) {
      folded = gates::word_xor(nl, folded, po_words[i]);
    }
    Word misr(bits);
    for (int i = 0; i < bits; ++i) {
      misr[i] = nl.add_dff(cat("misr[", std::to_string(i), "]"));
    }
    std::vector<GateId> tap_bits;
    for (int t : lfsr_taps(bits)) tap_bits.push_back(misr[t]);
    GateId fb = tap_bits[0];
    for (std::size_t i = 1; i < tap_bits.size(); ++i) {
      fb = nl.add_gate(GateKind::Xor, {fb, tap_bits[i]});
    }
    GateId not_rst = nl.add_gate(GateKind::Not, {e.reset});
    for (int i = 0; i < bits; ++i) {
      GateId shifted = i == 0 ? fb : misr[i - 1];
      GateId next = nl.add_gate(GateKind::Xor, {shifted, folded[i]});
      // Reset clears the signature register so sessions are deterministic.
      nl.connect_dff(misr[i], nl.add_gate(GateKind::And, {not_rst, next}));
    }
    gates::add_output_word(nl, misr, "misr");
  }
  for (std::size_t i = 0; i < port_driven.size(); ++i) {
    HLTS_REQUIRE(port_driven[i], "output port " + design.outports()[i].name +
                                     " has no driver");
  }

  nl.validate();

  // Constant propagation + CSE + dead-logic sweep: commercial ATPG flows
  // never see the bit-blaster's redundant gates, so neither should ours.
  gates::SimplifyResult simplified = gates::simplify(nl);
  auto remap_gate = [&](GateId g) { return simplified.remap[g]; };
  e.reset = remap_gate(e.reset);
  if (e.hold.valid()) e.hold = remap_gate(e.hold);
  for (GateId& s : e.state) s = remap_gate(s);
  for (Word& w : e.inport_words) {
    for (GateId& g : w) g = remap_gate(g);
  }
  for (Word& w : e.reg_words) {
    for (GateId& g : w) g = remap_gate(g);
  }
  e.netlist = std::move(simplified.netlist);
  return e;
}

}  // namespace hlts::rtl
