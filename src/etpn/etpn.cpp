#include "etpn/etpn.hpp"

#include "util/error.hpp"

namespace hlts::etpn {

int Etpn::execution_time() const { return petri::critical_path(control).length; }

namespace {

/// Builds the control part: a chain of control places S0 (load) .. SL, plus
/// optionally a guarded loop back to S1 and a guarded exit to a final place.
void build_control(Etpn& e, const dfg::Dfg& g, int length,
                   const EtpnOptions& options) {
  e.step_place.assign(length + 1, petri::PlaceId::invalid());
  e.step_place[0] = e.control.add_place("S0", /*delay=*/0, /*marked=*/true);
  for (int step = 1; step <= length; ++step) {
    e.step_place[step] =
        e.control.add_place("S" + std::to_string(step), /*delay=*/1);
  }
  for (int step = 0; step < length; ++step) {
    e.control.add_transition("t" + std::to_string(step) + "_" +
                                 std::to_string(step + 1),
                             {e.step_place[step]}, {e.step_place[step + 1]});
  }

  // Condition output: a port-direct comparison result.
  dfg::VarId cond = dfg::VarId::invalid();
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    if (var.is_primary_output && !g.needs_register(v) && var.def.valid() &&
        dfg::op_is_comparison(g.op(var.def).kind)) {
      cond = v;
      break;
    }
  }

  if (options.loop_on_condition && cond.valid() && length >= 1) {
    petri::PlaceId done = e.control.add_place("done", /*delay=*/0);
    e.control.add_transition("t_loop", {e.step_place[length]},
                             {e.step_place[1]}, /*guard_group=*/1,
                             /*polarity=*/true);
    e.control.add_transition("t_exit", {e.step_place[length]}, {done},
                             /*guard_group=*/1, /*polarity=*/false);
  }

  e.control.validate();
}

}  // namespace

Etpn build_etpn(const dfg::Dfg& g, const sched::Schedule& s, const Binding& b,
                const EtpnOptions& options) {
  HLTS_REQUIRE(s.num_ops() == g.num_ops(), "schedule does not match DFG");
  b.validate(g);

  Etpn e;
  DataPath& dp = e.data_path;

  // --- data path nodes ------------------------------------------------------
  e.module_node.resize(b.num_module_slots());
  e.reg_node.resize(b.num_reg_slots());
  e.inport_node.resize(g.num_vars());
  e.outport_node.resize(g.num_vars());

  for (RegId r : b.alive_regs()) {
    DpNode node;
    node.kind = DpNodeKind::Register;
    node.name = b.reg_label(g, r);
    node.reg = r;
    e.reg_node[r] = dp.add_node(std::move(node));
  }
  for (ModuleId m : b.alive_modules()) {
    DpNode node;
    node.kind = DpNodeKind::Module;
    node.name = b.module_label(g, m);
    node.module = m;
    node.op_class = b.module_kind(g, m);
    e.module_node[m] = dp.add_node(std::move(node));
  }
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    if (var.is_primary_input) {
      DpNode node;
      node.kind = DpNodeKind::InPort;
      node.name = "in:" + var.name;
      node.port_var = v;
      e.inport_node[v] = dp.add_node(std::move(node));
    }
    if (var.is_primary_output) {
      DpNode node;
      node.kind = DpNodeKind::OutPort;
      node.name = "out:" + var.name;
      node.port_var = v;
      e.outport_node[v] = dp.add_node(std::move(node));
    }
  }

  // --- data path arcs -------------------------------------------------------
  // The canonical emission scan: PI loads (step 0) in variable order, then
  // per operation in op-id order its operand fetches, result store, and
  // output-port connection.
  const int length = s.length();
  for (dfg::VarId v : g.var_ids()) {
    if (!g.var(v).is_primary_input) continue;
    dp.add_transfer(e.inport_node[v], e.reg_node[b.reg_of(v)], 0, 0);
  }
  for (dfg::OpId op : g.op_ids()) {
    const dfg::Operation& o = g.op(op);
    const int step = s.step(op);
    DpNodeId mod = e.module_node[b.module_of(op)];
    for (std::size_t i = 0; i < o.inputs.size(); ++i) {
      RegId src = b.reg_of(o.inputs[i]);
      HLTS_REQUIRE(src.valid(), "operand variable is not register-resident");
      dp.add_transfer(e.reg_node[src], mod, static_cast<int>(i), step);
    }
    const dfg::Variable& out = g.var(o.output);
    RegId dst = b.reg_of(o.output);
    if (dst.valid()) {
      dp.add_transfer(mod, e.reg_node[dst], 0, step);
      if (out.is_primary_output) {
        // Registered PO: the held value is presented at the port after the
        // last step.
        dp.add_transfer(e.reg_node[dst], e.outport_node[o.output], 0,
                        length + 1);
      }
    } else {
      HLTS_REQUIRE(out.is_primary_output,
                   "unregistered variable must be a primary output");
      dp.add_transfer(mod, e.outport_node[o.output], 0, step);
    }
  }
  // Squeeze incremental-growth slack out of the pools so a fresh build's
  // layout is the canonical dense one (spans in id order, cap == len).
  dp.compact_pools();

  // --- control part ---------------------------------------------------------
  build_control(e, g, length, options);
  return e;
}

}  // namespace hlts::etpn
