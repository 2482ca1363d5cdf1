#include "etpn/etpn.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace hlts::etpn {

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

/// build_data_path's working lists, kept per thread so that a build
/// allocates only the design it returns once they have grown.
struct BuildScratch {
  std::vector<std::uint32_t> out_head;  ///< per node: its newest out-arc
  std::vector<std::uint32_t> out_next;  ///< per arc: the next older one
  std::vector<std::uint32_t> transfer_arc;  ///< per transfer: its arc
  std::vector<int> transfer_step;           ///< per transfer: its step
};

}  // namespace

Etpn build_data_path(const dfg::Dfg& g, const sched::Schedule& s,
                     const Binding& b) {
  HLTS_REQUIRE(s.num_ops() == g.num_ops(), "schedule does not match DFG");
  b.validate(g);

  // --- counts ---------------------------------------------------------------
  std::size_t num_nodes = 0;
  std::size_t num_transfers = 0;
  for (RegId r : id_range<RegId>(b.num_reg_slots())) num_nodes += b.reg_alive(r);
  for (ModuleId m : id_range<ModuleId>(b.num_module_slots())) {
    num_nodes += b.module_alive(m);
  }
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    num_nodes += var.is_primary_input + var.is_primary_output;
    num_transfers += var.is_primary_input;
  }
  for (dfg::OpId op : g.op_ids()) {
    const dfg::Operation& o = g.op(op);
    num_transfers += o.inputs.size() + 1 +
                     (b.reg_of(o.output).valid() &&
                      g.var(o.output).is_primary_output);
  }

  // --- nodes: alive registers, alive modules, then the variables' ports -----
  Etpn e;
  e.module_node.resize(b.num_module_slots());
  e.reg_node.resize(b.num_reg_slots());
  e.inport_node.resize(g.num_vars());
  e.outport_node.resize(g.num_vars());
  IndexVec<DpNodeId, DpNode> nodes;
  nodes.reserve(num_nodes);
  for (RegId r : id_range<RegId>(b.num_reg_slots())) {
    if (!b.reg_alive(r)) continue;
    DpNode node;
    node.kind = DpNodeKind::Register;
    node.reg = r;
    e.reg_node[r] = nodes.push_back(node);
  }
  for (ModuleId m : id_range<ModuleId>(b.num_module_slots())) {
    if (!b.module_alive(m)) continue;
    DpNode node;
    node.kind = DpNodeKind::Module;
    node.module = m;
    node.op_class = b.module_kind(g, m);
    e.module_node[m] = nodes.push_back(node);
  }
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    DpNode node;
    node.port_var = v;
    if (var.is_primary_input) {
      node.kind = DpNodeKind::InPort;
      e.inport_node[v] = nodes.push_back(node);
    }
    if (var.is_primary_output) {
      node.kind = DpNodeKind::OutPort;
      e.outport_node[v] = nodes.push_back(node);
    }
  }

  // --- arcs -----------------------------------------------------------------
  // The canonical emission scan: PI loads (step 0) in variable order, then
  // per operation in op-id order its operand fetches, result store, and
  // output-port connection.  A transfer between the ports of an earlier one
  // joins its arc; arc ids follow first appearance.
  thread_local BuildScratch scratch;
  scratch.out_head.assign(num_nodes, kNone);
  scratch.out_next.clear();
  scratch.transfer_arc.clear();
  scratch.transfer_step.clear();
  IndexVec<DpArcId, DpArc> arcs;
  arcs.reserve(num_transfers);
  auto transfer = [&](DpNodeId from, DpNodeId to, int to_port, int step) {
    HLTS_REQUIRE(step >= 0, "build_data_path: negative step");
    std::uint32_t a = scratch.out_head[from.index()];
    while (a != kNone) {
      const DpArc& arc = arcs[DpArcId{a}];
      if (arc.to == to && arc.to_port == to_port) break;
      a = scratch.out_next[a];
    }
    if (a == kNone) {
      a = static_cast<std::uint32_t>(arcs.size());
      arcs.push_back(DpArc{from, to, to_port});
      scratch.out_next.push_back(scratch.out_head[from.index()]);
      scratch.out_head[from.index()] = a;
    }
    scratch.transfer_arc.push_back(a);
    scratch.transfer_step.push_back(step);
  };
  const int length = s.length();
  for (dfg::VarId v : g.var_ids()) {
    if (!g.var(v).is_primary_input) continue;
    transfer(e.inport_node[v], e.reg_node[b.reg_of(v)], 0, 0);
  }
  for (dfg::OpId op : g.op_ids()) {
    const dfg::Operation& o = g.op(op);
    const int step = s.step(op);
    const DpNodeId mod = e.module_node[b.module_of(op)];
    for (std::size_t i = 0; i < o.inputs.size(); ++i) {
      const RegId src = b.reg_of(o.inputs[i]);
      HLTS_REQUIRE(src.valid(), "operand variable is not register-resident");
      transfer(e.reg_node[src], mod, static_cast<int>(i), step);
    }
    const dfg::Variable& out = g.var(o.output);
    const RegId dst = b.reg_of(o.output);
    if (dst.valid()) {
      transfer(mod, e.reg_node[dst], 0, step);
      if (out.is_primary_output) {
        // Registered PO: the held value is presented at the port after the
        // last step.
        transfer(e.reg_node[dst], e.outport_node[o.output], 0, length + 1);
      }
    } else {
      HLTS_REQUIRE(out.is_primary_output,
                   "unregistered variable must be a primary output");
      transfer(mod, e.outport_node[o.output], 0, step);
    }
  }

  // --- step sets --------------------------------------------------------------
  // Each arc's transfers, counted into its span, placed at its offset, then
  // sorted with repeats dropped and slid down over the gap they leave.
  IndexVec<DpArcId, PoolSpan> step_spans(arcs.size());
  for (const std::uint32_t a : scratch.transfer_arc) ++step_spans[DpArcId{a}].cap;
  std::uint32_t off = 0;
  for (PoolSpan& span : step_spans) {
    span.off = off;
    off += span.cap;
  }
  std::vector<int> steps(off);
  for (std::size_t t = 0; t < scratch.transfer_arc.size(); ++t) {
    PoolSpan& span = step_spans[DpArcId{scratch.transfer_arc[t]}];
    steps[span.off + span.len++] = scratch.transfer_step[t];
  }
  std::uint32_t end = 0;
  for (PoolSpan& span : step_spans) {
    int* first = steps.data() + span.off;
    std::sort(first, first + span.len);
    const auto len = static_cast<std::uint32_t>(
        std::unique(first, first + span.len) - first);
    if (end != span.off) {
      std::memmove(steps.data() + end, first, len * sizeof(int));
    }
    span = PoolSpan{end, len, len};
    end += len;
  }
  steps.resize(end);

  e.data_path = DataPath::dense(std::move(nodes), std::move(arcs),
                                std::move(step_spans), std::move(steps));
  return e;
}

std::string node_label(const dfg::Dfg& g, const Binding& b,
                       const DpNode& node) {
  switch (node.kind) {
    case DpNodeKind::Register:
      if (node.reg.valid() && node.reg.index() < b.num_reg_slots() &&
          b.reg_alive(node.reg)) {
        return b.reg_label(g, node.reg);
      }
      break;
    case DpNodeKind::Module:
      if (node.module.valid() && node.module.index() < b.num_module_slots() &&
          b.module_alive(node.module)) {
        return b.module_label(g, node.module);
      }
      break;
    case DpNodeKind::InPort:
    case DpNodeKind::OutPort:
      if (node.port_var.valid() && node.port_var.index() < g.num_vars()) {
        return cat(node.kind == DpNodeKind::InPort ? "in:" : "out:",
                   g.var(node.port_var).name);
      }
      break;
  }
  return "?";
}

}  // namespace hlts::etpn
