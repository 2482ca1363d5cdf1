#include "core/validate.hpp"

#include <algorithm>

#include "sched/lifetime.hpp"
#include "util/error.hpp"

namespace hlts::core {

namespace {

void add(AuditReport& report, std::string message) {
  report.violations.push_back(std::move(message));
}

}  // namespace

std::string AuditReport::summary() const {
  if (violations.empty()) return "ok";
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out;
}

AuditReport audit_design(const dfg::Dfg& g, const sched::Schedule& s,
                         const etpn::Binding& b) {
  AuditReport report;

  try {
    g.validate();
  } catch (const std::exception& ex) {
    add(report, std::string("dfg: ") + ex.what());
  }

  if (s.num_ops() != g.num_ops()) {
    add(report, "schedule: op count " + std::to_string(s.num_ops()) +
                    " does not match DFG op count " +
                    std::to_string(g.num_ops()));
    return report;  // step-based checks below would index out of range
  }

  // Precedence: every operation strictly after all of its data
  // predecessors, in a positive control step (step 0 is the PI load step).
  for (dfg::OpId op : g.op_ids()) {
    const int step = s.step(op);
    if (step < 1) {
      add(report, "schedule: op " + g.op(op).name + " in non-positive step " +
                      std::to_string(step));
      continue;
    }
    for (dfg::VarId in : g.op(op).inputs) {
      const dfg::OpId def = g.var(in).def;
      if (!def.valid()) continue;  // primary input, loaded in step 0
      if (s.step(def) >= step) {
        add(report, "schedule: precedence violation, op " + g.op(op).name +
                        " (step " + std::to_string(step) + ") reads " +
                        g.var(in).name + " defined by " + g.op(def).name +
                        " (step " + std::to_string(s.step(def)) + ")");
      }
    }
  }

  try {
    b.validate(g);
  } catch (const std::exception& ex) {
    add(report, std::string("binding: ") + ex.what());
    return report;  // module/register walks below assume a sane binding
  }

  // Module conflicts: no two operations of one module in the same step.
  for (etpn::ModuleId m : b.alive_modules()) {
    const std::vector<dfg::OpId>& ops = b.module_ops(m);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        if (s.step(ops[i]) == s.step(ops[j])) {
          add(report, "binding: module conflict, ops " + g.op(ops[i]).name +
                          " and " + g.op(ops[j]).name +
                          " share a module in step " +
                          std::to_string(s.step(ops[i])));
        }
      }
    }
  }

  // Register lifetime overlaps within every register group.
  const sched::LifetimeTable lifetimes = sched::LifetimeTable::compute(g, s);
  for (etpn::RegId r : b.alive_regs()) {
    const std::vector<dfg::VarId>& vars = b.reg_vars(r);
    for (std::size_t i = 0; i < vars.size(); ++i) {
      for (std::size_t j = i + 1; j < vars.size(); ++j) {
        if (!lifetimes.disjoint(vars[i], vars[j])) {
          add(report, "binding: register lifetime overlap, variables " +
                          g.var(vars[i]).name + " and " + g.var(vars[j]).name +
                          " share a register with overlapping lifetimes");
        }
      }
    }
  }

  return report;
}

AuditReport audit_etpn(const dfg::Dfg& g, const etpn::Etpn& e,
                       const etpn::Binding& b) {
  AuditReport report;
  const etpn::DataPath& dp = e.data_path;

  // Arc anchoring.  A merge-patched graph carries tombstones: dead arcs
  // must be detached from every adjacency list, alive arcs must join two
  // alive nodes and appear in both endpoints' lists.
  for (etpn::DpArcId a : dp.arc_ids()) {
    const etpn::DpArc& arc = dp.arc(a);
    const bool from_ok = arc.from.valid() && arc.from.index() < dp.num_nodes();
    const bool to_ok = arc.to.valid() && arc.to.index() < dp.num_nodes();
    if (!from_ok || !to_ok) {
      add(report, "etpn: dangling arc " + std::to_string(a.value()) +
                      " (endpoint out of range)");
      continue;
    }
    const util::Span<etpn::DpArcId> outs = dp.out_arcs(arc.from);
    const util::Span<etpn::DpArcId> ins = dp.in_arcs(arc.to);
    const bool in_outs = std::find(outs.begin(), outs.end(), a) != outs.end();
    const bool in_ins = std::find(ins.begin(), ins.end(), a) != ins.end();
    if (!dp.alive(a)) {
      if (in_outs || in_ins) {
        add(report, "etpn: dead arc " + std::to_string(a.value()) +
                        " still listed by an endpoint");
      }
      continue;  // step annotations of tombstones are irrelevant
    }
    if (!dp.alive(arc.from) || !dp.alive(arc.to)) {
      add(report, "etpn: alive arc " + std::to_string(a.value()) +
                      " touches a dead node");
    }
    if (!in_outs) {
      add(report, "etpn: arc " + std::to_string(a.value()) +
                      " missing from its source's out_arcs (" +
                      etpn::node_label(g, b, dp.node(arc.from)) + ")");
    }
    if (!in_ins) {
      add(report, "etpn: arc " + std::to_string(a.value()) +
                      " missing from its destination's in_arcs (" +
                      etpn::node_label(g, b, dp.node(arc.to)) + ")");
    }
    const util::Span<int> steps = dp.steps(a);
    if (!std::is_sorted(steps.begin(), steps.end()) ||
        std::adjacent_find(steps.begin(), steps.end()) != steps.end()) {
      add(report, "etpn: arc " + std::to_string(a.value()) +
                      " has unsorted or duplicate step annotations");
    }
    if (!steps.empty() && steps.front() < 0) {
      add(report, "etpn: arc " + std::to_string(a.value()) +
                      " active in a negative step");
    }
  }

  // Every node's arc lists must reference real, alive arcs anchored at that
  // node; dead nodes must be fully detached.
  for (etpn::DpNodeId n : dp.node_ids()) {
    const auto label = [&] { return etpn::node_label(g, b, dp.node(n)); };
    if (!dp.alive(n) && !(dp.in_arcs(n).empty() && dp.out_arcs(n).empty())) {
      add(report, "etpn: dead node " + label() + " still lists arcs");
      continue;
    }
    for (etpn::DpArcId a : dp.out_arcs(n)) {
      if (!a.valid() || a.index() >= dp.num_arcs() || dp.arc(a).from != n ||
          !dp.alive(a)) {
        add(report, "etpn: node " + label() + " lists a bad out-arc");
      }
    }
    for (etpn::DpArcId a : dp.in_arcs(n)) {
      if (!a.valid() || a.index() >= dp.num_arcs() || dp.arc(a).to != n ||
          !dp.alive(a)) {
        add(report, "etpn: node " + label() + " lists a bad in-arc");
      }
    }
  }

  // Alive binding groups must be materialized as alive nodes of the right
  // kind (merged-away groups become tombstoned nodes).
  for (etpn::ModuleId m : b.alive_modules()) {
    const etpn::DpNodeId n =
        e.module_node.contains(m) ? e.module_node[m] : etpn::DpNodeId::invalid();
    if (!n.valid() || n.index() >= dp.num_nodes() || !dp.alive(n) ||
        dp.node(n).kind != etpn::DpNodeKind::Module) {
      add(report, "etpn: alive module " + b.module_label(g, m) +
                      " has no alive Module data-path node");
    }
  }
  for (etpn::RegId r : b.alive_regs()) {
    const etpn::DpNodeId n =
        e.reg_node.contains(r) ? e.reg_node[r] : etpn::DpNodeId::invalid();
    if (!n.valid() || n.index() >= dp.num_nodes() || !dp.alive(n) ||
        dp.node(n).kind != etpn::DpNodeKind::Register) {
      add(report, "etpn: alive register " + b.reg_label(g, r) +
                      " has no alive Register data-path node");
    }
  }

  return report;
}

void enforce_audit(const AuditReport& report, const char* where) {
  if (report.ok()) return;
  throw Error(std::string("audit failed at ") + where + ": " +
                  report.summary(),
              ErrorKind::Internal);
}

}  // namespace hlts::core
