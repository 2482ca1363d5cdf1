#include "sched/fds.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "util/error.hpp"

namespace hlts::sched {
namespace {

struct Window {
  int lo = 1;
  int hi = 1;
  [[nodiscard]] int width() const { return hi - lo + 1; }
};

class FdsState {
 public:
  FdsState(const dfg::Dfg& g, int latency)
      : g_(g),
        latency_(latency),
        windows_(g.num_ops()),
        fixed_(g.num_ops(), false) {
    Schedule early = asap(g);
    Schedule late = alap(g, latency);
    for (dfg::OpId op : g.op_ids()) {
      windows_[op] = {early.step(op), late.step(op)};
    }
    rebuild_dg();
  }

  [[nodiscard]] bool all_fixed() const {
    return std::all_of(fixed_.begin(), fixed_.end(), [](bool b) { return b; });
  }

  /// Distribution graph value for `cls` at `step`.  Looked up from a table
  /// rebuilt after every window change: force evaluation probes dg() for
  /// every (candidate op, step, window step) triple, and summing over all
  /// ops per probe made FDS cubic-and-worse on large graphs.  The rebuild
  /// accumulates in ascending op order -- the same order the per-probe loop
  /// used -- so the cached sums are bit-identical to the naive ones.
  [[nodiscard]] double dg(int cls, int step) const {
    return dg_[static_cast<std::size_t>(cls)][static_cast<std::size_t>(step)];
  }

  /// Self force of fixing `op` at `step` (standard Paulin-Knight formula).
  [[nodiscard]] double self_force(dfg::OpId op, int step) const {
    const Window& w = windows_[op];
    const int cls = dfg::module_class(g_.op(op).kind);
    double force = 0;
    for (int t = w.lo; t <= w.hi; ++t) {
      const double delta = (t == step ? 1.0 : 0.0) - 1.0 / w.width();
      force += dg(cls, t) * delta;
    }
    return force;
  }

  /// Force contribution of the implied window shrink of a neighbour whose
  /// window becomes [lo, hi].
  [[nodiscard]] double neighbour_force(dfg::OpId op, int lo, int hi) const {
    const Window& w = windows_[op];
    if (lo == w.lo && hi == w.hi) return 0;
    const int cls = dfg::module_class(g_.op(op).kind);
    const int new_width = hi - lo + 1;
    double force = 0;
    for (int t = w.lo; t <= w.hi; ++t) {
      const double p_new = (t >= lo && t <= hi) ? 1.0 / new_width : 0.0;
      force += dg(cls, t) * (p_new - 1.0 / w.width());
    }
    return force;
  }

  /// Total force of fixing `op` at `step`, including direct predecessor and
  /// successor window shrinks.
  [[nodiscard]] double total_force(dfg::OpId op, int step) const {
    double force = self_force(op, step);
    for (dfg::OpId p : g_.preds(op)) {
      if (fixed_[p]) continue;
      const Window& w = windows_[p];
      force += neighbour_force(p, w.lo, std::min(w.hi, step - 1));
    }
    for (dfg::OpId q : g_.succs(op)) {
      if (fixed_[q]) continue;
      const Window& w = windows_[q];
      force += neighbour_force(q, std::max(w.lo, step + 1), w.hi);
    }
    return force;
  }

  /// Fixes `op` at `step` and propagates window shrinks transitively.
  void fix(dfg::OpId op, int step) {
    windows_[op] = {step, step};
    fixed_[op] = true;
    propagate();
    rebuild_dg();
  }

  [[nodiscard]] const Window& window(dfg::OpId op) const { return windows_[op]; }
  [[nodiscard]] bool is_fixed(dfg::OpId op) const { return fixed_[op]; }

 private:
  void propagate() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (dfg::OpId op : g_.op_ids()) {
        Window& w = windows_[op];
        for (dfg::OpId p : g_.preds(op)) {
          if (windows_[p].lo + 1 > w.lo) {
            w.lo = windows_[p].lo + 1;
            changed = true;
          }
        }
        for (dfg::OpId q : g_.succs(op)) {
          if (windows_[q].hi - 1 < w.hi) {
            w.hi = windows_[q].hi - 1;
            changed = true;
          }
        }
        HLTS_REQUIRE(w.lo <= w.hi, "FDS window collapsed; latency infeasible");
      }
    }
  }

  void rebuild_dg() {
    // 6 module classes (see dfg::module_class); steps are 1-based so the rows
    // span [0, latency] inclusive.
    dg_.assign(6, std::vector<double>(static_cast<std::size_t>(latency_) + 1,
                                      0.0));
    for (dfg::OpId op : g_.op_ids()) {
      const int cls = dfg::module_class(g_.op(op).kind);
      const Window& w = windows_[op];
      const double p = 1.0 / w.width();
      for (int t = w.lo; t <= w.hi; ++t) {
        dg_[static_cast<std::size_t>(cls)][static_cast<std::size_t>(t)] += p;
      }
    }
  }

  const dfg::Dfg& g_;
  int latency_;
  IndexVec<dfg::OpId, Window> windows_;
  IndexVec<dfg::OpId, bool> fixed_;
  std::vector<std::vector<double>> dg_;
};

}  // namespace

Schedule force_directed_schedule(const dfg::Dfg& g, const FdsOptions& options) {
  const int latency = std::max(options.latency, g.critical_path_ops());
  FdsState state(g, latency);

  while (!state.all_fixed()) {
    dfg::OpId best_op;
    int best_step = 0;
    double best_force = 0;
    bool found = false;
    for (dfg::OpId op : g.op_ids()) {
      if (state.is_fixed(op)) continue;
      const auto& w = state.window(op);
      for (int s = w.lo; s <= w.hi; ++s) {
        const double f = state.total_force(op, s);
        if (!found || f < best_force - 1e-12) {
          found = true;
          best_force = f;
          best_op = op;
          best_step = s;
        }
      }
    }
    HLTS_REQUIRE(found, "FDS: no assignable operation (internal error)");
    state.fix(best_op, best_step);
  }

  Schedule result(g.num_ops());
  for (dfg::OpId op : g.op_ids()) {
    result.set_step(op, state.window(op).lo);
  }
  HLTS_REQUIRE(result.respects_data_deps(g), "FDS produced an invalid schedule");
  return result;
}

}  // namespace hlts::sched
