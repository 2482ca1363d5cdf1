#include "sched/schedule.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hlts::sched {

int Schedule::length() const {
  int best = 0;
  for (int s : steps_) best = std::max(best, s);
  return best;
}

bool Schedule::respects_data_deps(const dfg::Dfg& g) const {
  for (dfg::OpId op : g.op_ids()) {
    // The defining ops of op's inputs are its predecessors (read in place:
    // Dfg::preds would build a deduplicated list per op).
    for (dfg::VarId in : g.op(op).inputs) {
      const dfg::OpId p = g.var(in).def;
      if (p.valid() && step(op) <= step(p)) return false;
    }
    if (step(op) < 1) return false;
  }
  return true;
}

std::vector<dfg::OpId> Schedule::ops_in_step(const dfg::Dfg& g, int step) const {
  std::vector<dfg::OpId> out;
  for (dfg::OpId op : g.op_ids()) {
    if (steps_[op] == step) out.push_back(op);
  }
  return out;
}

Schedule asap(const dfg::Dfg& g) {
  Schedule s(g.num_ops());
  for (dfg::OpId op : g.topo_order()) {
    int step = 1;
    for (dfg::OpId p : g.preds(op)) {
      step = std::max(step, s.step(p) + 1);
    }
    s.set_step(op, step);
  }
  return s;
}

Schedule alap(const dfg::Dfg& g, int latency) {
  HLTS_REQUIRE_INPUT(latency >= g.critical_path_ops(),
                     "alap: latency below critical path length");
  Schedule s(g.num_ops());
  std::vector<dfg::OpId> order = g.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    int step = latency;
    for (dfg::OpId q : g.succs(*it)) {
      step = std::min(step, s.step(q) - 1);
    }
    s.set_step(*it, step);
  }
  return s;
}

IndexVec<dfg::OpId, int> mobility(const dfg::Dfg& g, int latency) {
  Schedule early = asap(g);
  Schedule late = alap(g, latency);
  IndexVec<dfg::OpId, int> mob(g.num_ops(), 0);
  for (dfg::OpId op : g.op_ids()) {
    mob[op] = late.step(op) - early.step(op);
  }
  return mob;
}

}  // namespace hlts::sched
