#include "support/reference_layers.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "sched/lifetime.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace hlts::test_support {

namespace {

/// The scheduling-constraint graph as a one-shot arc list: every solve
/// builds successor lists and runs Kahn's algorithm with a min-heap.
class FrozenConstraintGraph {
 public:
  explicit FrozenConstraintGraph(const dfg::Dfg& g) : num_ops_(g.num_ops()) {
    for (dfg::OpId op : g.op_ids()) {
      for (dfg::OpId p : g.preds(op)) {
        add_arc(p, op, 1);
      }
    }
  }

  void add_arc(dfg::OpId from, dfg::OpId to, int weight) {
    arcs_.push_back({from, to, weight});
  }

  [[nodiscard]] std::optional<sched::Schedule> solve() const {
    // Kahn's algorithm over the arc multigraph; zero-weight arcs still count
    // for ordering, so any directed cycle (even all-zero-weight) is rejected.
    std::vector<std::vector<std::pair<std::uint32_t, int>>> succs(num_ops_);
    std::vector<int> indegree(num_ops_, 0);
    for (const Arc& a : arcs_) {
      succs[a.from.index()].push_back({a.to.value(), a.weight});
      ++indegree[a.to.index()];
    }

    std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                        std::greater<>>
        ready;
    for (std::uint32_t i = 0; i < num_ops_; ++i) {
      if (indegree[i] == 0) ready.push(i);
    }

    sched::Schedule s(num_ops_);
    std::vector<int> step(num_ops_, 1);
    std::size_t done = 0;
    while (!ready.empty()) {
      std::uint32_t u = ready.top();
      ready.pop();
      ++done;
      s.set_step(dfg::OpId{u}, step[u]);
      for (auto [v, w] : succs[u]) {
        step[v] = std::max(step[v], step[u] + w);
        if (--indegree[v] == 0) ready.push(v);
      }
    }
    if (done != num_ops_) return std::nullopt;  // cycle
    return s;
  }

 private:
  struct Arc {
    dfg::OpId from;
    dfg::OpId to;
    int weight = 1;
  };
  std::size_t num_ops_;
  std::vector<Arc> arcs_;
};

using ModuleChains = std::vector<std::vector<dfg::OpId>>;
using RegChains = std::vector<std::vector<dfg::VarId>>;

/// Builds the constraint graph for the given execution/lifetime orders and
/// solves it.
std::optional<sched::Schedule> solve_orders(const dfg::Dfg& g,
                                            const ModuleChains& module_chains,
                                            const RegChains& reg_chains) {
  FrozenConstraintGraph cg(g);
  for (const auto& chain : module_chains) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      cg.add_arc(chain[i], chain[i + 1], 1);
    }
  }
  for (const auto& chain : reg_chains) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const dfg::Variable& earlier = g.var(chain[i]);
      const dfg::Variable& later = g.var(chain[i + 1]);
      if (!later.def.valid()) return std::nullopt;  // PI not first: impossible
      // The later variable may be written at the clock edge ending the step
      // in which the earlier one is last read (weight-0 arcs).
      if (earlier.uses.empty()) {
        if (earlier.def.valid()) cg.add_arc(earlier.def, later.def, 0);
      } else {
        for (dfg::OpId use : earlier.uses) {
          cg.add_arc(use, later.def, 0);
        }
      }
    }
  }
  return cg.solve();
}

/// Lifetime-order sort key: primary inputs first (born at load time),
/// registered primary outputs last (held to the end), otherwise previous
/// birth step.
int var_order_key(const dfg::Dfg& g, const sched::Schedule& hint,
                  dfg::VarId v) {
  const dfg::Variable& var = g.var(v);
  if (var.is_primary_input) return -1;
  if (var.is_primary_output && var.po_registered) return INT_MAX;
  return hint.step(var.def);
}

/// Structural feasibility of one register's variable set: at most one
/// primary input (all PIs are born simultaneously) and at most one
/// registered primary output (all are held to the end).
bool reg_set_feasible(const dfg::Dfg& g, const std::vector<dfg::VarId>& vars) {
  int pis = 0;
  int pos = 0;
  for (dfg::VarId v : vars) {
    const dfg::Variable& var = g.var(v);
    if (var.is_primary_input) ++pis;
    if (var.is_primary_output && var.po_registered) ++pos;
  }
  return pis <= 1 && pos <= 1;
}

// --- floorplanner -----------------------------------------------------------

struct FrozenFloorplanScratch {
  std::vector<int> connectivity;
  std::vector<std::vector<std::uint32_t>> neighbours;
  std::vector<std::uint32_t> order;
  std::vector<bool> placed;
  std::vector<std::pair<int, int>> spiral;
  std::set<std::pair<int, int>> occupied;
};

double node_area(const etpn::DpNode& node, const cost::ModuleLibrary& lib,
                 int bits) {
  switch (node.kind) {
    case etpn::DpNodeKind::Register:
      return lib.register_area(bits);
    case etpn::DpNodeKind::Module:
      return lib.module_area(node.op_class, bits);
    case etpn::DpNodeKind::InPort:
    case etpn::DpNodeKind::OutPort:
      return 0.0;  // pads; excluded from core area
  }
  return 0.0;
}

}  // namespace

core::ReschedOutcome reference_reschedule(const dfg::Dfg& g,
                                          const etpn::Binding& b,
                                          const sched::Schedule& hint,
                                          core::OrderStrategy strategy,
                                          const etpn::Etpn* premerged) {
  core::ReschedOutcome out;

  // --- derive initial chains from the previous schedule ---------------------
  ModuleChains module_chains;
  for (etpn::ModuleId m : b.alive_modules()) {
    std::vector<dfg::OpId> chain = b.module_ops(m);
    std::stable_sort(chain.begin(), chain.end(), [&](dfg::OpId a, dfg::OpId c) {
      return hint.step(a) < hint.step(c);
    });
    module_chains.push_back(std::move(chain));
  }
  RegChains reg_chains;
  for (etpn::RegId r : b.alive_regs()) {
    std::vector<dfg::VarId> chain = b.reg_vars(r);
    if (!reg_set_feasible(g, chain)) return out;
    std::stable_sort(chain.begin(), chain.end(), [&](dfg::VarId a, dfg::VarId c) {
      return var_order_key(g, hint, a) < var_order_key(g, hint, c);
    });
    reg_chains.push_back(std::move(chain));
  }

  auto solution = solve_orders(g, module_chains, reg_chains);

  // --- SR1/SR2 ordering refinement at conflict points ------------------------
  // Conflict points are adjacent chain elements that previously shared a
  // control step (modules) or a birth step (registers): exactly the places
  // where the merger forces a new ordering decision.  Each is resolved by
  // comparing the two orders; the testability strategy prefers executing
  // first the operation whose operand registers are nearest to primary
  // inputs (SR2 supports SR1: the controllable value is consumed at once
  // and its result heads toward an observable register one step sooner),
  // falling back to the smallest critical-path increase.  The plain
  // strategy swaps only when forced or when it shortens the schedule.
  // Register distances are a pure BFS over the alive data-path topology --
  // step annotations never enter -- so a caller-supplied merge-patched graph
  // (structurally identical, stale steps) yields the same distances as the
  // fresh build and therefore the identical schedule.
  std::optional<etpn::Etpn> local_e;
  if (premerged == nullptr) {
    local_e.emplace(etpn::build_data_path(g, hint, b));
    premerged = &*local_e;
  }
  const etpn::Etpn& e = *premerged;
  const etpn::DataPath::RegisterDistances dist =
      reference_register_distances(e.data_path);
  auto op_controllability_key = [&](dfg::OpId op) {
    // Smaller = operands closer to primary inputs.
    int best = INT_MAX;
    for (dfg::VarId in : g.op(op).inputs) {
      etpn::RegId r = b.reg_of(in);
      if (!r.valid()) continue;
      const int d = dist.d_in[e.reg_node[r].index()];
      if (d >= 0) best = std::min(best, d);
    }
    return best;
  };

  auto evaluate = [&](const ModuleChains& mc, const RegChains& rc)
      -> std::optional<int> {
    auto s = solve_orders(g, mc, rc);
    if (!s) return std::nullopt;
    return s->length();
  };

  for (auto& chain : module_chains) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const bool tied = hint.step(chain[i]) == hint.step(chain[i + 1]);
      // Candidate orders: as-is and swapped.  Non-tied pairs keep the
      // incumbent order unless it is infeasible (the paper's two
      // "possibilities" are explored only where the merger created a new
      // ordering decision).
      auto len_asis = evaluate(module_chains, reg_chains);
      if (!tied && len_asis) continue;  // keep incumbent order
      std::swap(chain[i], chain[i + 1]);
      auto len_swap = evaluate(module_chains, reg_chains);

      bool keep_swap = false;
      if (!len_asis) {
        keep_swap = len_swap.has_value();  // only the swap is feasible
      } else if (len_swap) {
        if (strategy == core::OrderStrategy::Testability) {
          const int ka = op_controllability_key(chain[i + 1]);  // swapped
          const int kb = op_controllability_key(chain[i]);
          if (ka != kb) {
            keep_swap = kb < ka;  // SR2: more controllable operands go first
          } else {
            keep_swap = *len_swap < *len_asis;  // critical-path fallback
          }
        } else {
          keep_swap = *len_swap < *len_asis;
        }
      }
      if (!keep_swap) std::swap(chain[i], chain[i + 1]);  // undo
    }
  }

  for (auto& chain : reg_chains) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      // Primary inputs are born at load time and must stay first; registered
      // primary outputs are held to the end and must stay last.  The
      // constraint graph cannot express these (they are not op-to-op arcs),
      // so such pairs are never reordered.
      const dfg::Variable& vi = g.var(chain[i]);
      const dfg::Variable& vj = g.var(chain[i + 1]);
      if (vi.is_primary_input || (vj.is_primary_output && vj.po_registered)) {
        continue;
      }
      const bool tied = var_order_key(g, hint, chain[i]) ==
                        var_order_key(g, hint, chain[i + 1]);
      auto len_asis = evaluate(module_chains, reg_chains);
      if (!tied && len_asis) continue;
      std::swap(chain[i], chain[i + 1]);
      auto len_swap = evaluate(module_chains, reg_chains);

      bool keep_swap = false;
      if (!len_asis) {
        keep_swap = len_swap.has_value();
      } else if (len_swap) {
        if (strategy == core::OrderStrategy::Testability) {
          // SR1 at the variable level: let the variable whose defining op
          // has the more controllable operands expire first.
          const dfg::Variable& va = g.var(chain[i + 1]);  // swapped
          const dfg::Variable& vb = g.var(chain[i]);
          const int ka = va.def.valid() ? op_controllability_key(va.def) : -1;
          const int kb = vb.def.valid() ? op_controllability_key(vb.def) : -1;
          if (ka != kb) {
            keep_swap = kb < ka;
          } else {
            keep_swap = *len_swap < *len_asis;
          }
        } else {
          keep_swap = *len_swap < *len_asis;
        }
      }
      if (!keep_swap) std::swap(chain[i], chain[i + 1]);
    }
  }

  solution = solve_orders(g, module_chains, reg_chains);
  if (!solution) return out;

  out.feasible = true;
  out.schedule = *solution;
  HLTS_REQUIRE(reference_schedule_respects_binding(g, b, out.schedule),
               "rescheduler produced a schedule violating the binding");
  return out;
}

etpn::DataPath::RegisterDistances reference_register_distances(
    const etpn::DataPath& dp) {
  using etpn::DpArcId;
  using etpn::DpNodeId;
  using etpn::DpNodeKind;
  // Register hop graph: r1 -> r2 when r1 reaches r2 through at most one
  // module (one clocked stage).
  std::vector<std::vector<std::uint32_t>> fwd(dp.num_nodes());
  std::vector<std::vector<std::uint32_t>> bwd(dp.num_nodes());
  std::vector<std::uint32_t> regs;
  std::vector<int> d_in(dp.num_nodes(), -1);
  std::vector<int> d_out(dp.num_nodes(), -1);

  auto reg_targets_of = [&](DpNodeId n, auto&& self, bool through_module,
                            std::vector<std::uint32_t>& out) -> void {
    for (DpArcId a : dp.out_arcs(n)) {
      const etpn::DpNode& to = dp.node(dp.arc(a).to);
      if (to.kind == DpNodeKind::Register) {
        out.push_back(dp.arc(a).to.value());
      } else if (to.kind == DpNodeKind::Module && !through_module) {
        self(dp.arc(a).to, self, true, out);
      }
    }
  };

  for (DpNodeId n : dp.node_ids()) {
    if (!dp.alive(n) || dp.node(n).kind != DpNodeKind::Register) continue;
    regs.push_back(n.value());
    std::vector<std::uint32_t> targets;
    reg_targets_of(n, reg_targets_of, false, targets);
    for (std::uint32_t t : targets) {
      fwd[n.index()].push_back(t);
      bwd[t].push_back(n.value());
    }
    // Controllable seed: loaded directly from an input port.
    for (DpArcId a : dp.in_arcs(n)) {
      if (dp.node(dp.arc(a).from).kind == DpNodeKind::InPort) {
        d_in[n.index()] = 0;
      }
    }
    // Observable seed: feeds an output port directly or through one module.
    for (DpArcId a : dp.out_arcs(n)) {
      const etpn::DpNode& to = dp.node(dp.arc(a).to);
      if (to.kind == DpNodeKind::OutPort) d_out[n.index()] = 0;
      if (to.kind == DpNodeKind::Module) {
        for (DpArcId b : dp.out_arcs(dp.arc(a).to)) {
          if (dp.node(dp.arc(b).to).kind == DpNodeKind::OutPort) {
            d_out[n.index()] = 0;
          }
        }
      }
    }
  }

  auto bfs = [&](std::vector<int>& dist,
                 const std::vector<std::vector<std::uint32_t>>& adj) {
    std::deque<std::uint32_t> q;
    for (std::uint32_t r : regs) {
      if (dist[r] == 0) q.push_back(r);
    }
    while (!q.empty()) {
      std::uint32_t u = q.front();
      q.pop_front();
      for (std::uint32_t v : adj[u]) {
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          q.push_back(v);
        }
      }
    }
  };
  bfs(d_in, fwd);
  bfs(d_out, bwd);

  etpn::DataPath::RegisterDistances dist;
  dist.d_in = std::move(d_in);
  dist.d_out = std::move(d_out);
  return dist;
}

bool reference_schedule_respects_binding(const dfg::Dfg& g,
                                         const etpn::Binding& b,
                                         const sched::Schedule& s) {
  if (!s.respects_data_deps(g)) return false;
  for (etpn::ModuleId m : b.alive_modules()) {
    const auto& ops = b.module_ops(m);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        if (s.step(ops[i]) == s.step(ops[j])) return false;
      }
    }
  }
  const sched::LifetimeTable lifetimes = sched::LifetimeTable::compute(g, s);
  for (etpn::RegId r : b.alive_regs()) {
    const auto& vars = b.reg_vars(r);
    for (std::size_t i = 0; i < vars.size(); ++i) {
      for (std::size_t j = i + 1; j < vars.size(); ++j) {
        if (!lifetimes.disjoint(vars[i], vars[j])) return false;
      }
    }
  }
  return true;
}

cost::Floorplan reference_floorplan(const etpn::DataPath& dp,
                                    const cost::ModuleLibrary& lib,
                                    int bits) {
  cost::Floorplan plan;
  FrozenFloorplanScratch scratch;
  plan.position.assign(dp.num_nodes(), {0, 0});
  plan.pitch = 0.0;
  const std::size_t alive = dp.num_alive_nodes();
  if (alive == 0) return plan;

  // Pitch: side of the average cell footprint.
  double total_area = 0;
  for (etpn::DpNodeId n : dp.node_ids()) {
    if (!dp.alive(n)) continue;
    total_area += node_area(dp.node(n), lib, bits);
  }
  plan.pitch =
      std::sqrt(std::max(total_area, 1e-9) / static_cast<double>(alive));

  // Connectivity (number of arcs) per node, and neighbour lists.
  scratch.connectivity.assign(dp.num_nodes(), 0);
  scratch.neighbours.resize(dp.num_nodes());
  for (auto& nb : scratch.neighbours) nb.clear();
  for (etpn::DpArcId a : dp.arc_ids()) {
    if (!dp.alive(a)) continue;
    const etpn::DpArc& arc = dp.arc(a);
    ++scratch.connectivity[arc.from.index()];
    ++scratch.connectivity[arc.to.index()];
    scratch.neighbours[arc.from.index()].push_back(arc.to.value());
    scratch.neighbours[arc.to.index()].push_back(arc.from.value());
  }

  scratch.order.clear();
  for (etpn::DpNodeId n : dp.node_ids()) {
    if (dp.alive(n)) scratch.order.push_back(n.value());
  }
  std::stable_sort(scratch.order.begin(), scratch.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return scratch.connectivity[a] > scratch.connectivity[b];
                   });

  scratch.occupied.clear();
  scratch.placed.assign(dp.num_nodes(), false);
  // Spiral candidate positions around the origin, enough for all nodes.
  scratch.spiral.clear();
  const int radius =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(alive)))) + 2;
  for (int r = 0; r <= radius; ++r) {
    for (int x = -r; x <= r; ++x) {
      for (int y = -r; y <= r; ++y) {
        if (std::max(std::abs(x), std::abs(y)) == r) {
          scratch.spiral.push_back({x, y});
        }
      }
    }
  }

  for (std::uint32_t idx : scratch.order) {
    etpn::DpNodeId n{idx};
    std::pair<int, int> best_pos{0, 0};
    double best_cost = 1e300;
    for (const auto& pos : scratch.spiral) {
      if (scratch.occupied.count(pos)) continue;
      double cost = 0;
      for (std::uint32_t nb : scratch.neighbours[idx]) {
        if (!scratch.placed[nb]) continue;
        const auto [nx, ny] = plan.position[etpn::DpNodeId{nb}];
        cost += std::abs(pos.first - nx) + std::abs(pos.second - ny);
      }
      // Light pull toward the origin keeps unconnected nodes compact.
      cost += 0.01 * (std::abs(pos.first) + std::abs(pos.second));
      if (cost < best_cost) {
        best_cost = cost;
        best_pos = pos;
      }
    }
    plan.position[n] = best_pos;
    scratch.occupied.insert(best_pos);
    scratch.placed[idx] = true;
  }
  return plan;
}

cost::HardwareCost reference_estimate_cost(const etpn::DataPath& dp,
                                           const cost::ModuleLibrary& lib,
                                           int bits) {
  cost::HardwareCost cost;

  for (etpn::DpNodeId n : dp.node_ids()) {
    if (!dp.alive(n)) continue;
    const etpn::DpNode& node = dp.node(n);
    switch (node.kind) {
      case etpn::DpNodeKind::Register:
        cost.register_area += lib.register_area(bits);
        break;
      case etpn::DpNodeKind::Module:
        cost.module_area += lib.module_area(node.op_class, bits);
        break;
      default:
        break;
    }
    // Multiplexers: a port with s >= 2 sources needs (s - 1) two-to-one
    // muxes.
    for (int port = 0; port < dp.num_ports(n); ++port) {
      const int sources = dp.num_port_sources(n, port);
      if (sources >= 2) {
        cost.mux_area += (static_cast<double>(sources) - 1.0) *
                         lib.mux_area(bits);
      }
    }
  }

  const cost::Floorplan plan = reference_floorplan(dp, lib, bits);
  for (etpn::DpArcId a : dp.arc_ids()) {
    if (!dp.alive(a)) continue;
    const etpn::DpArc& arc = dp.arc(a);
    const double len = plan.distance(arc.from, arc.to);
    const double wid = static_cast<double>(bits) * lib.wire_pitch();
    cost.wire_area += len * wid;
  }
  return cost;
}

// ---------------------------------------------------------------------------
// Testability fixpoint and candidate rankings.
// ---------------------------------------------------------------------------

namespace {

using testability::Measure;

constexpr double kFrozenEps = 1e-9;
constexpr int kFrozenMaxRounds = 256;

bool frozen_better(const Measure& a, const Measure& b) {
  if (a.comb > b.comb + kFrozenEps) return true;
  if (a.comb < b.comb - kFrozenEps) return false;
  return a.seq < b.seq - kFrozenEps;
}

/// Should `v` replace the stored `s`: better, or within an eps-plateau the
/// lexicographic maximum (bitwise larger comb, then smaller seq).
bool frozen_should_replace(const Measure& v, const Measure& s) {
  if (frozen_better(v, s)) return true;
  if (frozen_better(s, v)) return false;
  return v.comb > s.comb || (v.comb == s.comb && v.seq < s.seq);
}

template <typename Arcs>
Measure frozen_best_over(const Arcs& arcs, const std::vector<Measure>& table) {
  bool any = false;
  Measure best;
  for (etpn::DpArcId a : arcs) {
    if (!any || frozen_better(table[a.index()], best)) {
      best = table[a.index()];
      any = true;
    }
  }
  return any ? best : Measure{};
}

/// Best CC among `n`'s in-arcs on input port `port`; `def` when none.
Measure frozen_port_best(const etpn::DataPath& dp, etpn::DpNodeId n, int port,
                         const std::vector<Measure>& cc, bool* any_out) {
  bool any = false;
  Measure best;
  for (etpn::DpArcId a : dp.in_arcs(n)) {
    if (dp.arc(a).to_port != port) continue;
    if (!any || frozen_better(cc[a.index()], best)) {
      best = cc[a.index()];
      any = true;
    }
  }
  if (any_out != nullptr) *any_out = any;
  return any ? best : Measure{};
}

}  // namespace

ReferenceTestability::ReferenceTestability(const etpn::DataPath& dp)
    : dp_(dp), cc_(dp.num_arcs()), co_(dp.num_arcs()) {
  using etpn::DpNodeKind;
  for (int round = 0; round < kFrozenMaxRounds; ++round) {
    bool changed = false;
    for (etpn::DpNodeId n : dp.node_ids()) {
      if (!dp.alive(n)) continue;
      const etpn::DpNode& node = dp.node(n);
      Measure out;
      switch (node.kind) {
        case DpNodeKind::OutPort:
          continue;
        case DpNodeKind::InPort:
          out = {1.0, 0.0};
          break;
        case DpNodeKind::Register: {
          const Measure best = frozen_best_over(dp.in_arcs(n), cc_);
          out = {best.comb, best.seq + 1.0};
          break;
        }
        case DpNodeKind::Module: {
          double comb = testability::controllability_transfer(node.op_class);
          double seq = 0;
          for (int port = 0; port < dp.num_ports(n); ++port) {
            const Measure best = frozen_port_best(dp, n, port, cc_, nullptr);
            comb *= best.comb;
            seq = std::max(seq, best.seq);
          }
          out = {comb, seq};
          break;
        }
      }
      for (etpn::DpArcId a : dp.out_arcs(n)) {
        if (frozen_should_replace(out, cc_[a.index()])) {
          cc_[a.index()] = out;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  for (int round = 0; round < kFrozenMaxRounds; ++round) {
    bool changed = false;
    for (etpn::DpNodeId n : dp.node_ids()) {
      if (!dp.alive(n)) continue;
      const etpn::DpNode& node = dp.node(n);
      if (node.kind == DpNodeKind::InPort) continue;
      for (etpn::DpArcId in : dp.in_arcs(n)) {
        Measure val;
        if (node.kind == DpNodeKind::OutPort) {
          val = {1.0, 0.0};
        } else if (node.kind == DpNodeKind::Register) {
          const Measure best = frozen_best_over(dp.out_arcs(n), co_);
          val = {best.comb, best.seq + 1.0};
        } else {
          const Measure out_best = frozen_best_over(dp.out_arcs(n), co_);
          double side = 1.0;
          if (dp.num_ports(n) > 1) {
            bool any = false;
            const Measure best = frozen_port_best(
                dp, n, 1 - dp.arc(in).to_port, cc_, &any);
            side = any ? best.comb : 0.0;
          }
          val = {testability::observability_transfer(node.op_class) *
                     out_best.comb * side,
                 out_best.seq};
        }
        if (frozen_should_replace(val, co_[in.index()])) {
          co_[in.index()] = val;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
}

Measure ReferenceTestability::node_controllability(etpn::DpNodeId n) const {
  if (dp_.node(n).kind == etpn::DpNodeKind::InPort) return {1.0, 0.0};
  return frozen_best_over(dp_.in_arcs(n), cc_);
}

Measure ReferenceTestability::node_observability(etpn::DpNodeId n) const {
  if (dp_.node(n).kind == etpn::DpNodeKind::OutPort) return {1.0, 0.0};
  return frozen_best_over(dp_.out_arcs(n), co_);
}

double ReferenceTestability::balance_index() const {
  double sum = 0;
  int count = 0;
  for (etpn::DpNodeId n : dp_.node_ids()) {
    if (!dp_.alive(n)) continue;
    const auto kind = dp_.node(n).kind;
    if (kind != etpn::DpNodeKind::Register &&
        kind != etpn::DpNodeKind::Module) {
      continue;
    }
    sum += std::min(node_controllability(n).scalar(),
                    node_observability(n).scalar());
    ++count;
  }
  return count ? sum / count : 0.0;
}

namespace {

/// Register-merge feasibility as the rankings first checked it: the
/// reachability closure and the case-(2) pair set rebuilt per ranking.
class FrozenRegOracle {
 public:
  FrozenRegOracle(const dfg::Dfg& g, const etpn::Binding& b)
      : g_(g), b_(b), words_((g.num_ops() + 63) / 64),
        bits_(g.num_ops() * words_, 0) {
    std::vector<dfg::OpId> order = g.topo_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      std::uint64_t* row = &bits_[it->index() * words_];
      for (dfg::OpId s : g.succs(*it)) {
        row[s.index() / 64] |= std::uint64_t{1} << (s.index() % 64);
        const std::uint64_t* reach = &bits_[s.index() * words_];
        for (std::size_t w = 0; w < words_; ++w) row[w] |= reach[w];
      }
    }
    for (dfg::OpId op : g.op_ids()) {
      const auto& ins = g.op(op).inputs;
      for (std::size_t i = 0; i < ins.size(); ++i) {
        for (std::size_t j = i + 1; j < ins.size(); ++j) {
          const etpn::RegId ri = b.reg_of(ins[i]);
          const etpn::RegId rj = b.reg_of(ins[j]);
          if (ri != rj) {
            conflicts_.insert({std::min(ri.value(), rj.value()),
                               std::max(ri.value(), rj.value())});
          }
        }
      }
    }
  }

  [[nodiscard]] bool impossible(etpn::RegId ra, etpn::RegId rb) const {
    if (conflicts_.count({std::min(ra.value(), rb.value()),
                          std::max(ra.value(), rb.value())}) != 0) {
      return true;
    }
    auto reaches = [&](dfg::OpId a, dfg::OpId c) {
      return (bits_[a.index() * words_ + c.index() / 64] >>
              (c.index() % 64)) & 1u;
    };
    auto dir_blocked = [&](dfg::VarId before, dfg::VarId after) {
      const dfg::Variable& va = g_.var(after);
      if (!va.def.valid()) return true;
      const dfg::Variable& vb = g_.var(before);
      if (vb.def.valid() && reaches(va.def, vb.def)) return true;
      for (dfg::OpId u : vb.uses) {
        if (reaches(va.def, u)) return true;
      }
      return false;
    };
    for (dfg::VarId v1 : b_.reg_vars(ra)) {
      for (dfg::VarId v2 : b_.reg_vars(rb)) {
        if (dir_blocked(v1, v2) && dir_blocked(v2, v1)) return true;
      }
    }
    return false;
  }

 private:
  const dfg::Dfg& g_;
  const etpn::Binding& b_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> conflicts_;
};

std::vector<testability::MergeCandidate> frozen_rank(
    std::vector<testability::MergeCandidate> candidates, int k) {
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const testability::MergeCandidate& a,
                      const testability::MergeCandidate& c) {
                     return a.score > c.score;
                   });
  if (static_cast<int>(candidates.size()) > k) candidates.resize(k);
  return candidates;
}

}  // namespace

std::vector<testability::MergeCandidate> reference_select_balance_candidates(
    const dfg::Dfg& g, const etpn::Binding& b, const etpn::Etpn& e,
    const ReferenceTestability& analysis, int k,
    const testability::BalanceOptions& options) {
  using testability::MergeCandidate;
  const etpn::DataPath& dp = e.data_path;
  auto score_pair = [&](etpn::DpNodeId n1, etpn::DpNodeId n2,
                        bool self_loop) {
    const double c1 = analysis.node_controllability(n1).scalar(options.lambda);
    const double o1 = analysis.node_observability(n1).scalar(options.lambda);
    const double c2 = analysis.node_controllability(n2).scalar(options.lambda);
    const double o2 = analysis.node_observability(n2).scalar(options.lambda);
    const double compl_bonus =
        std::max(0.0, c1 - o1) * std::max(0.0, o2 - c2) +
        std::max(0.0, c2 - o2) * std::max(0.0, o1 - c1);
    double score = std::min(std::max(c1, c2), std::max(o1, o2)) +
                   options.complementarity_weight * compl_bonus;
    if (self_loop) score -= options.self_loop_penalty;
    return score;
  };
  // Every module's (read register, written register) node pairs.
  std::set<std::pair<std::uint32_t, std::uint32_t>> rw;
  auto reads_writes = [&](etpn::DpNodeId m, std::set<std::uint32_t>& reads,
                          std::set<std::uint32_t>& writes) {
    for (etpn::DpArcId a : dp.in_arcs(m)) {
      if (dp.node(dp.arc(a).from).kind == etpn::DpNodeKind::Register) {
        reads.insert(dp.arc(a).from.value());
      }
    }
    for (etpn::DpArcId a : dp.out_arcs(m)) {
      if (dp.node(dp.arc(a).to).kind == etpn::DpNodeKind::Register) {
        writes.insert(dp.arc(a).to.value());
      }
    }
  };

  std::vector<MergeCandidate> candidates;
  const std::vector<etpn::ModuleId> modules = b.alive_modules();
  for (etpn::ModuleId m : modules) {
    std::set<std::uint32_t> reads, writes;
    reads_writes(e.module_node[m], reads, writes);
    for (std::uint32_t r : reads) {
      for (std::uint32_t w : writes) rw.insert({r, w});
    }
  }
  for (std::size_t i = 0; i < modules.size(); ++i) {
    for (std::size_t j = i + 1; j < modules.size(); ++j) {
      if (!b.can_merge_modules(g, modules[i], modules[j])) continue;
      std::set<std::uint32_t> reads, writes;
      reads_writes(e.module_node[modules[i]], reads, writes);
      reads_writes(e.module_node[modules[j]], reads, writes);
      bool self_loop = false;
      for (std::uint32_t r : reads) self_loop |= writes.count(r) != 0;
      MergeCandidate c;
      c.kind = MergeCandidate::Kind::Modules;
      c.module_a = modules[i];
      c.module_b = modules[j];
      c.creates_self_loop = self_loop;
      c.score = score_pair(e.module_node[modules[i]],
                           e.module_node[modules[j]], self_loop);
      candidates.push_back(c);
    }
  }
  const FrozenRegOracle oracle(g, b);
  const std::vector<etpn::RegId> regs = b.alive_regs();
  for (std::size_t i = 0; i < regs.size(); ++i) {
    for (std::size_t j = i + 1; j < regs.size(); ++j) {
      if (!b.can_merge_regs(regs[i], regs[j])) continue;
      if (oracle.impossible(regs[i], regs[j])) continue;
      const std::uint32_t n1 = e.reg_node[regs[i]].value();
      const std::uint32_t n2 = e.reg_node[regs[j]].value();
      const bool self_loop = rw.count({n1, n1}) || rw.count({n1, n2}) ||
                             rw.count({n2, n1}) || rw.count({n2, n2});
      MergeCandidate c;
      c.kind = MergeCandidate::Kind::Registers;
      c.reg_a = regs[i];
      c.reg_b = regs[j];
      c.creates_self_loop = self_loop;
      c.score = score_pair(e.reg_node[regs[i]], e.reg_node[regs[j]],
                           self_loop);
      candidates.push_back(c);
    }
  }
  return frozen_rank(std::move(candidates), k);
}

std::vector<testability::MergeCandidate>
reference_select_connectivity_candidates(const dfg::Dfg& g,
                                         const etpn::Binding& b,
                                         const etpn::Etpn& e, int k) {
  using testability::MergeCandidate;
  const etpn::DataPath& dp = e.data_path;
  auto neighbours = [&](etpn::DpNodeId n, bool sources) {
    std::set<std::uint32_t> out;
    for (etpn::DpArcId a : sources ? dp.in_arcs(n) : dp.out_arcs(n)) {
      out.insert(sources ? dp.arc(a).from.value() : dp.arc(a).to.value());
    }
    return out;
  };
  auto closeness = [&](etpn::DpNodeId n1, etpn::DpNodeId n2) {
    int score = 0;
    for (const bool sources : {true, false}) {
      const std::set<std::uint32_t> a = neighbours(n1, sources);
      const std::set<std::uint32_t> c = neighbours(n2, sources);
      for (std::uint32_t x : a) score += static_cast<int>(c.count(x));
    }
    if (neighbours(n1, false).count(n2.value()) ||
        neighbours(n2, false).count(n1.value())) {
      ++score;
    }
    return score;
  };

  std::vector<MergeCandidate> candidates;
  const std::vector<etpn::ModuleId> modules = b.alive_modules();
  for (std::size_t i = 0; i < modules.size(); ++i) {
    for (std::size_t j = i + 1; j < modules.size(); ++j) {
      if (!b.can_merge_modules(g, modules[i], modules[j])) continue;
      MergeCandidate c;
      c.kind = MergeCandidate::Kind::Modules;
      c.module_a = modules[i];
      c.module_b = modules[j];
      c.score = closeness(e.module_node[modules[i]], e.module_node[modules[j]]);
      if (c.score > 0) candidates.push_back(c);
    }
  }
  const FrozenRegOracle oracle(g, b);
  const std::vector<etpn::RegId> regs = b.alive_regs();
  for (std::size_t i = 0; i < regs.size(); ++i) {
    for (std::size_t j = i + 1; j < regs.size(); ++j) {
      if (!b.can_merge_regs(regs[i], regs[j])) continue;
      if (oracle.impossible(regs[i], regs[j])) continue;
      MergeCandidate c;
      c.kind = MergeCandidate::Kind::Registers;
      c.reg_a = regs[i];
      c.reg_b = regs[j];
      c.score = closeness(e.reg_node[regs[i]], e.reg_node[regs[j]]);
      if (c.score > 0) candidates.push_back(c);
    }
  }
  return frozen_rank(std::move(candidates), k);
}

namespace {

/// The growable pools of the frozen build.
struct GrowingDataPath {
  ReferenceDataPath& out;

  void list_append(etpn::PoolSpan& s, etpn::DpArcId v) {
    std::vector<etpn::DpArcId>& pool = out.arc_pool;
    if (s.len < s.cap) {
      pool[s.off + s.len++] = v;
      return;
    }
    const std::uint32_t cap = s.cap == 0 ? 2 : s.cap * 2;
    const auto off = static_cast<std::uint32_t>(pool.size());
    pool.resize(pool.size() + cap);
    for (std::uint32_t i = 0; i < s.len; ++i) pool[off + i] = pool[s.off + i];
    s.off = off;
    s.cap = cap;
    pool[s.off + s.len++] = v;
  }

  void insert_step(etpn::PoolSpan& s, int step) {
    std::vector<int>& pool = out.step_pool;
    std::uint32_t lo = 0;
    while (lo < s.len && pool[s.off + lo] < step) ++lo;
    if (lo < s.len && pool[s.off + lo] == step) return;
    if (s.len == s.cap) {
      const std::uint32_t cap = s.cap == 0 ? 2 : s.cap * 2;
      const auto off = static_cast<std::uint32_t>(pool.size());
      pool.resize(pool.size() + cap);
      for (std::uint32_t i = 0; i < s.len; ++i) pool[off + i] = pool[s.off + i];
      s.off = off;
      s.cap = cap;
    }
    for (std::uint32_t i = s.len; i > lo; --i) {
      pool[s.off + i] = pool[s.off + i - 1];
    }
    pool[s.off + lo] = step;
    ++s.len;
  }

  etpn::DpNodeId add_node(etpn::DpNode fields, std::string name) {
    out.nodes.push_back({fields, std::move(name)});
    out.in_span.emplace_back();
    out.out_span.emplace_back();
    return etpn::DpNodeId{static_cast<std::uint32_t>(out.nodes.size() - 1)};
  }

  void add_transfer(etpn::DpNodeId from, etpn::DpNodeId to, int to_port,
                    int step) {
    HLTS_REQUIRE(step >= 0, "reference build: negative step");
    const etpn::PoolSpan fs = out.out_span[from.index()];
    for (std::uint32_t i = 0; i < fs.len; ++i) {
      const etpn::DpArcId a = out.arc_pool[fs.off + i];
      const etpn::DpArc& arc = out.arcs[a.index()];
      if (arc.to == to && arc.to_port == to_port) {
        insert_step(out.step_span[a.index()], step);
        return;
      }
    }
    const etpn::DpArcId id{static_cast<std::uint32_t>(out.arcs.size())};
    out.arcs.push_back(etpn::DpArc{from, to, to_port});
    out.step_span.emplace_back();
    insert_step(out.step_span.back(), step);
    list_append(out.out_span[from.index()], id);
    list_append(out.in_span[to.index()], id);
  }

  void compact_pools() {
    std::vector<etpn::DpArcId> arcs;
    for (std::size_t n = 0; n < out.nodes.size(); ++n) {
      for (etpn::PoolSpan* span : {&out.in_span[n], &out.out_span[n]}) {
        const auto off = static_cast<std::uint32_t>(arcs.size());
        arcs.insert(arcs.end(), out.arc_pool.begin() + span->off,
                    out.arc_pool.begin() + span->off + span->len);
        *span = etpn::PoolSpan{off, span->len, span->len};
      }
    }
    out.arc_pool = std::move(arcs);
    std::vector<int> steps;
    for (etpn::PoolSpan& span : out.step_span) {
      const auto off = static_cast<std::uint32_t>(steps.size());
      steps.insert(steps.end(), out.step_pool.begin() + span.off,
                   out.step_pool.begin() + span.off + span.len);
      span = etpn::PoolSpan{off, span.len, span.len};
    }
    out.step_pool = std::move(steps);
  }
};

}  // namespace

ReferenceDataPath reference_build_data_path(const dfg::Dfg& g,
                                            const sched::Schedule& s,
                                            const etpn::Binding& b) {
  HLTS_REQUIRE(s.num_ops() == g.num_ops(), "schedule does not match DFG");
  b.validate(g);
  ReferenceDataPath e;
  GrowingDataPath dp{e};
  e.module_node.resize(b.num_module_slots());
  e.reg_node.resize(b.num_reg_slots());
  e.inport_node.resize(g.num_vars());
  e.outport_node.resize(g.num_vars());

  for (etpn::RegId r : b.alive_regs()) {
    etpn::DpNode node;
    node.kind = etpn::DpNodeKind::Register;
    node.reg = r;
    e.reg_node[r] = dp.add_node(node, b.reg_label(g, r));
  }
  for (etpn::ModuleId m : b.alive_modules()) {
    etpn::DpNode node;
    node.kind = etpn::DpNodeKind::Module;
    node.module = m;
    node.op_class = b.module_kind(g, m);
    e.module_node[m] = dp.add_node(node, b.module_label(g, m));
  }
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    etpn::DpNode node;
    node.port_var = v;
    if (var.is_primary_input) {
      node.kind = etpn::DpNodeKind::InPort;
      e.inport_node[v] = dp.add_node(node, cat("in:", var.name));
    }
    if (var.is_primary_output) {
      node.kind = etpn::DpNodeKind::OutPort;
      e.outport_node[v] = dp.add_node(node, cat("out:", var.name));
    }
  }

  const int length = s.length();
  for (dfg::VarId v : g.var_ids()) {
    if (!g.var(v).is_primary_input) continue;
    dp.add_transfer(e.inport_node[v], e.reg_node[b.reg_of(v)], 0, 0);
  }
  for (dfg::OpId op : g.op_ids()) {
    const dfg::Operation& o = g.op(op);
    const int step = s.step(op);
    const etpn::DpNodeId mod = e.module_node[b.module_of(op)];
    for (std::size_t i = 0; i < o.inputs.size(); ++i) {
      const etpn::RegId src = b.reg_of(o.inputs[i]);
      HLTS_REQUIRE(src.valid(), "operand variable is not register-resident");
      dp.add_transfer(e.reg_node[src], mod, static_cast<int>(i), step);
    }
    const etpn::RegId dst = b.reg_of(o.output);
    if (dst.valid()) {
      dp.add_transfer(mod, e.reg_node[dst], 0, step);
      if (g.var(o.output).is_primary_output) {
        dp.add_transfer(e.reg_node[dst], e.outport_node[o.output], 0,
                        length + 1);
      }
    } else {
      HLTS_REQUIRE(g.var(o.output).is_primary_output,
                   "unregistered variable must be a primary output");
      dp.add_transfer(mod, e.outport_node[o.output], 0, step);
    }
  }
  dp.compact_pools();
  return e;
}

}  // namespace hlts::test_support
