#include "rtl/rtl.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace hlts::rtl {

RtlDesign RtlDesign::from_synthesis(const dfg::Dfg& g, const sched::Schedule& s,
                                    const etpn::Binding& b, int bits) {
  HLTS_REQUIRE_INPUT(bits >= 1, "RTL width must be >= 1");
  RtlDesign d;
  d.name_ = g.name();
  d.bits_ = bits;
  d.steps_ = s.length();

  // Ports.
  std::map<std::uint32_t, int> inport_of_var;   // VarId -> inport index
  std::map<std::uint32_t, int> outport_of_var;  // VarId -> outport index
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    if (var.is_primary_input) {
      inport_of_var[v.value()] = static_cast<int>(d.inports_.size());
      d.inports_.push_back({var.name, bits});
    }
    if (var.is_primary_output) {
      outport_of_var[v.value()] = static_cast<int>(d.outports_.size());
      d.outports_.push_back({var.name, bits});
    }
  }

  // Registers.
  IndexVec<etpn::RegId, RtlRegId> rtl_reg_of(b.num_reg_slots());
  for (etpn::RegId r : b.alive_regs()) {
    RtlReg reg;
    reg.name = b.reg_label(g, r);
    for (dfg::VarId v : b.reg_vars(r)) {
      const dfg::Variable& var = g.var(v);
      if (var.is_primary_input) {
        reg.writes.push_back(
            {/*step=*/0, /*from_port=*/true, inport_of_var.at(v.value()), {}});
      }
      if (var.is_primary_output && var.po_registered) {
        HLTS_REQUIRE(reg.outport_index < 0,
                     "register drives two output ports");
        reg.outport_index = outport_of_var.at(v.value());
      }
    }
    rtl_reg_of[r] = d.regs_.push_back(std::move(reg));
  }

  // Functional units and the FU-sourced register writes.
  IndexVec<etpn::ModuleId, RtlFuId> rtl_fu_of(b.num_module_slots());
  for (etpn::ModuleId m : b.alive_modules()) {
    RtlFu fu;
    fu.name = b.module_label(g, m);
    rtl_fu_of[m] = d.fus_.push_back(std::move(fu));
  }
  for (dfg::OpId op_id : g.op_ids()) {
    const dfg::Operation& op = g.op(op_id);
    RtlFuId fu = rtl_fu_of[b.module_of(op_id)];
    FuOp fop;
    fop.step = s.step(op_id);
    fop.kind = op.kind;
    fop.op_name = op.name;
    auto make_operand = [&](dfg::VarId v) {
      Operand o;
      etpn::RegId r = b.reg_of(v);
      HLTS_REQUIRE(r.valid(), "operand variable not register-resident");
      o.kind = Operand::Kind::Reg;
      o.reg = rtl_reg_of[r];
      return o;
    };
    fop.in0 = make_operand(op.inputs[0]);
    if (op.inputs.size() > 1) fop.in1 = make_operand(op.inputs[1]);

    const dfg::Variable& out = g.var(op.output);
    etpn::RegId dst = b.reg_of(op.output);
    if (dst.valid()) {
      fop.writes_reg = true;
      fop.dst = rtl_reg_of[dst];
      d.regs_[fop.dst].writes.push_back(
          {fop.step, /*from_port=*/false, -1, fu});
    } else {
      HLTS_REQUIRE(out.is_primary_output, "dangling operation output");
      fop.outport_index = outport_of_var.at(op.output.value());
    }
    d.fus_[fu].ops.push_back(fop);
  }
  for (RtlFu& fu : d.fus_) {
    std::sort(fu.ops.begin(), fu.ops.end(),
              [](const FuOp& a, const FuOp& b2) { return a.step < b2.step; });
  }

  d.validate();
  return d;
}

void RtlDesign::validate() const {
  for (const RtlReg& r : regs_) {
    HLTS_REQUIRE(!r.writes.empty(), "register " + r.name + " never written");
    for (const RegWrite& w : r.writes) {
      HLTS_REQUIRE(w.step >= 0 && w.step <= steps_, "write step out of range");
      if (w.from_port) {
        HLTS_REQUIRE(w.port_index >= 0 &&
                         w.port_index < static_cast<int>(inports_.size()),
                     "bad inport index");
      } else {
        HLTS_REQUIRE(fus_.contains(w.fu), "bad FU reference");
      }
    }
    HLTS_REQUIRE(r.outport_index < static_cast<int>(outports_.size()),
                 "bad outport index");
  }
  for (const RtlFu& fu : fus_) {
    HLTS_REQUIRE(!fu.ops.empty(), "FU " + fu.name + " executes nothing");
    for (std::size_t i = 0; i + 1 < fu.ops.size(); ++i) {
      HLTS_REQUIRE(fu.ops[i].step != fu.ops[i + 1].step,
                   "FU " + fu.name + " double-booked in one step");
    }
    for (const FuOp& op : fu.ops) {
      HLTS_REQUIRE(op.step >= 1 && op.step <= steps_, "op step out of range");
    }
  }
}

namespace {

std::string operand_verilog(const RtlDesign& d, const Operand& o) {
  if (o.kind == Operand::Kind::Port) {
    return "in_" + d.inports()[o.port_index].name;
  }
  return cat("r", std::to_string(o.reg.value()));
}

const char* verilog_op(dfg::OpKind kind) {
  using dfg::OpKind;
  switch (kind) {
    case OpKind::Add: return "+";
    case OpKind::Sub: return "-";
    case OpKind::Mul: return "*";
    case OpKind::Div: return "/";
    case OpKind::Less: return "<";
    case OpKind::Greater: return ">";
    case OpKind::Equal: return "==";
    case OpKind::And: return "&";
    case OpKind::Or: return "|";
    case OpKind::Xor: return "^";
    case OpKind::Not: return "~";
    case OpKind::ShiftLeft: return "<<";
    case OpKind::ShiftRight: return ">>";
    case OpKind::Move: return "";
  }
  return "?";
}

}  // namespace

std::string RtlDesign::to_verilog() const {
  std::ostringstream os;
  os << "// generated by hlts from benchmark '" << name_ << "'\n";
  os << "module " << name_ << " (\n  input  wire clk,\n  input  wire reset";
  for (const RtlPort& p : inports_) {
    os << ",\n  input  wire [" << bits_ - 1 << ":0] in_" << p.name;
  }
  for (const RtlPort& p : outports_) {
    os << ",\n  output wire [" << bits_ - 1 << ":0] out_" << p.name;
  }
  os << "\n);\n\n";

  os << "  // one-hot controller: S0 = input load, S1..S" << steps_
     << " = execution\n";
  os << "  reg [" << steps_ << ":0] state;\n";
  os << "  always @(posedge clk)\n"
     << "    if (reset) state <= " << steps_ + 1 << "'d1;\n"
     << "    else       state <= {state[" << steps_ - 1 << ":0], state["
     << steps_ << "]};\n\n";

  for (RtlRegId r : id_range<RtlRegId>(regs_.size())) {
    os << "  reg [" << bits_ - 1 << ":0] r" << r.value() << ";  // "
       << regs_[r].name << "\n";
  }
  os << "\n";

  for (RtlFuId f : id_range<RtlFuId>(fus_.size())) {
    const RtlFu& fu = fus_[f];
    os << "  // FU " << fu.name << "\n";
    os << "  reg [" << bits_ - 1 << ":0] fu" << f.value() << ";\n";
    os << "  always @* begin\n    fu" << f.value() << " = " << bits_
       << "'d0;\n    case (1'b1)\n";
    for (const FuOp& op : fu.ops) {
      os << "      state[" << op.step << "]: fu" << f.value() << " = ";
      if (dfg::op_arity(op.kind) == 1) {
        os << verilog_op(op.kind) << operand_verilog(*this, op.in0);
      } else {
        os << operand_verilog(*this, op.in0) << " " << verilog_op(op.kind)
           << " " << operand_verilog(*this, op.in1);
      }
      os << ";  // " << op.op_name << "\n";
    }
    os << "      default: ;\n    endcase\n  end\n\n";
  }

  for (RtlRegId r : id_range<RtlRegId>(regs_.size())) {
    const RtlReg& reg = regs_[r];
    os << "  // " << reg.name << "\n";
    os << "  always @(posedge clk)\n";
    os << "    if (reset) r" << r.value() << " <= " << bits_ << "'d0;\n";
    for (const RegWrite& w : reg.writes) {
      os << "    else if (state[" << w.step << "]) r" << r.value() << " <= ";
      if (w.from_port) {
        os << "in_" << inports_[w.port_index].name;
      } else {
        os << "fu" << w.fu.value();
      }
      os << ";\n";
    }
    os << "\n";
  }

  for (RtlRegId r : id_range<RtlRegId>(regs_.size())) {
    if (regs_[r].outport_index >= 0) {
      os << "  assign out_" << outports_[regs_[r].outport_index].name << " = r"
         << r.value() << ";\n";
    }
  }
  for (RtlFuId f : id_range<RtlFuId>(fus_.size())) {
    for (const FuOp& op : fus_[f].ops) {
      if (op.outport_index >= 0) {
        os << "  assign out_" << outports_[op.outport_index].name
           << " = state[" << op.step << "] ? fu" << f.value() << " : " << bits_
           << "'d0;\n";
      }
    }
  }
  os << "\nendmodule\n";
  return os.str();
}

}  // namespace hlts::rtl
