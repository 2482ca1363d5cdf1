#include "core/resched.hpp"

#include <algorithm>
#include <climits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sched/lifetime.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace hlts::core {

namespace {

/// Stable insertion sort: chains are short, and unlike std::stable_sort it
/// needs no temporary buffer.  Any stable sort yields the same order.
template <typename T, typename Less>
void stable_insertion_sort(std::span<T> items, Less less) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    const T item = items[i];
    std::size_t j = i;
    for (; j > 0 && less(item, items[j - 1]); --j) items[j] = items[j - 1];
    items[j] = item;
  }
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

void sort_module_chain(const sched::Schedule& hint,
                       std::span<dfg::OpId> chain) {
  stable_insertion_sort(chain, [&](dfg::OpId a, dfg::OpId c) {
    return hint.step(a) < hint.step(c);
  });
}

void sort_register_chain(const dfg::Dfg& g, const sched::Schedule& hint,
                         std::span<dfg::VarId> chain) {
  stable_insertion_sort(chain, [&](dfg::VarId a, dfg::VarId c) {
    return var_order_key(g, hint, a) < var_order_key(g, hint, c);
  });
}

/// Whether the order search never reorders register-chain neighbours x, y.
/// Primary inputs are born at load time and must stay first; registered
/// primary outputs are held to the end and must stay last.  The constraint
/// graph cannot express these (they are not op-to-op arcs), so such pairs
/// are never swapped.
bool fixed_register_pair(const dfg::Dfg& g, dfg::VarId x, dfg::VarId y) {
  const dfg::Variable& vy = g.var(y);
  return g.var(x).is_primary_input ||
         (vy.is_primary_output && vy.po_registered);
}

using CycleArc = sched::ConstraintGraph::CycleArc;
using ArcKind = sched::ConstraintGraph::ArcKind;

/// Whether a cycle certificate needs a cycle for the swap of arc j of
/// witness C0: every chain link but those fixed_register_pair keeps.
bool swap_needs_proof(const dfg::Dfg& g, const sched::ConstraintGraph& graph,
                      std::span<const CycleArc> c0, std::size_t j) {
  if (c0[j].kind == ArcKind::Module) return true;
  if (c0[j].kind != ArcKind::Register) return false;
  const auto [x, y] =
      graph.register_link_into(c0[j + 1 < c0.size() ? j + 1 : 0].op);
  return !fixed_register_pair(g, x, y);
}

/// Whether two cycles share a chain link: a module arc, or register arcs
/// into one head (all of them stand for one link).
bool share_a_link(std::span<const CycleArc> a, std::span<const CycleArc> b) {
  auto head = [](std::span<const CycleArc> c, std::size_t k) {
    return c[k + 1 < c.size() ? k + 1 : 0].op;
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != ArcKind::Module && a[i].kind != ArcKind::Register) {
      continue;
    }
    for (std::size_t k = 0; k < b.size(); ++k) {
      if (b[k].kind == a[i].kind && head(b, k) == head(a, i)) return true;
    }
  }
  return false;
}

/// Checks `cert` against `graph`, whose merge is linked but not solved.
CertificateCheck check_certificate(const dfg::Dfg& g,
                                   const CycleCertificate& cert,
                                   sched::ConstraintGraph& graph) {
  const std::span<const CycleArc> c0 = cert.cycle(0);
  if (!graph.has_cycle(c0)) return CertificateCheck::WitnessGone;
  if (cert.multi) {
    const std::span<const CycleArc> other = cert.cycle(1);
    return graph.has_cycle(other) && !share_a_link(c0, other)
               ? CertificateCheck::Proved
               : CertificateCheck::WitnessGone;
  }
  for (std::size_t j = 0; j < c0.size(); ++j) {
    if (!swap_needs_proof(g, graph, c0, j)) continue;
    if (cert.swapped[j] == 0 ||
        !graph.has_cycle_after_swap(c0, j, cert.cycle(cert.swapped[j]))) {
      return CertificateCheck::SwapUnproved;
    }
  }
  return CertificateCheck::Proved;
}

/// Adds `b`'s chains to `graph`, one per group slot in slot order (empty
/// for tombstones, so chain c belongs to group c), each sorted by `hint`:
/// module chains by step, register chains by var_order_key.
void add_chains(const dfg::Dfg& g, const etpn::Binding& b,
                const sched::Schedule& hint, sched::ConstraintGraph& graph) {
  for (etpn::ModuleId m : id_range<etpn::ModuleId>(b.num_module_slots())) {
    sort_module_chain(hint, graph.add_module_chain(b.module_ops(m)));
  }
  for (etpn::RegId r : id_range<etpn::RegId>(b.num_reg_slots())) {
    sort_register_chain(g, hint, graph.add_register_chain(b.reg_vars(r)));
  }
}

}  // namespace

std::span<const CycleCertificate::CycleArc> CycleCertificate::cycle(
    std::size_t k) const {
  const std::uint32_t begin = k == 0 ? 0 : ends[k - 1];
  return {arcs.data() + begin, ends[k] - begin};
}

std::uint32_t CycleCertificate::add(std::span<const CycleArc> cycle) {
  arcs.insert(arcs.end(), cycle.begin(), cycle.end());
  ends.push_back(static_cast<std::uint32_t>(arcs.size()));
  return static_cast<std::uint32_t>(ends.size() - 1);
}

void CycleCertificate::clear() {
  arcs.clear();
  ends.clear();
  multi = false;
  swapped.clear();
}

bool schedule_respects_binding(const dfg::Dfg& g, const etpn::Binding& b,
                               const sched::Schedule& s) {
  if (!s.respects_data_deps(g)) return false;
  // Every trial schedule within the latency bound is checked, so the
  // buffers live on.
  thread_local std::vector<int> steps;
  thread_local std::vector<sched::Lifetime> held;
  // No two ops of one module share a step: sorted, no two neighbours are
  // equal.  (Tombstoned groups are empty.)
  for (etpn::ModuleId m : id_range<etpn::ModuleId>(b.num_module_slots())) {
    const std::vector<dfg::OpId>& ops = b.module_ops(m);
    if (ops.size() < 2) continue;
    steps.clear();
    for (dfg::OpId op : ops) steps.push_back(s.step(op));
    std::sort(steps.begin(), steps.end());
    if (std::adjacent_find(steps.begin(), steps.end()) != steps.end()) {
      return false;
    }
  }
  // Pairwise disjoint lifetimes: sorted by birth, each non-empty lifetime
  // ends no later than the next one is born (empty ones are disjoint from
  // everything).
  const int length = s.length();
  for (etpn::RegId r : id_range<etpn::RegId>(b.num_reg_slots())) {
    const std::vector<dfg::VarId>& vars = b.reg_vars(r);
    if (vars.size() < 2) continue;
    held.clear();
    for (dfg::VarId v : vars) {
      const sched::Lifetime lt = sched::lifetime_of(g, s, length, v);
      if (!lt.empty()) held.push_back(lt);
    }
    std::sort(held.begin(), held.end(),
              [](const sched::Lifetime& x, const sched::Lifetime& y) {
                return x.birth < y.birth;
              });
    for (std::size_t i = 0; i + 1 < held.size(); ++i) {
      if (held[i].death > held[i + 1].birth) return false;
    }
  }
  return true;
}

namespace {

/// Scratch for one cycle, reused across the thread's trials.
std::vector<CycleArc>& cycle_buffer() {
  thread_local std::vector<CycleArc> buffer;
  return buffer;
}

/// The SR1/SR2 order search over `graph`'s chains, from its solved
/// incumbent of length `len`; the result of reschedule(), before the
/// binding check.  `reg_distance(r)` is register r's d_in in `b`'s data
/// path (see etpn::DataPath::register_distances).  With `record`, a search
/// that ends cyclic leaves its cycle certificate there and in the outcome.
template <typename RegDistance>
ReschedOutcome search_orders(const dfg::Dfg& g, const etpn::Binding& b,
                             const sched::Schedule& hint,
                             OrderStrategy strategy, RegDistance&& reg_distance,
                             sched::ConstraintGraph& graph,
                             std::optional<int> len,
                             CycleCertificate* record = nullptr) {
  ReschedOutcome out;
  const std::uint32_t cyclic = len ? 0 : graph.cyclic_components();
  // With two or more cyclic components no single swap yields a feasible
  // order, so none is ever kept: the search cannot succeed.
  if (cyclic >= 2) {
    out.cycles = CycleVerdict::Multi;
    if (record != nullptr) {
      record->clear();
      record->multi = true;
      for (std::uint32_t c = 0; c < 2; ++c) {
        graph.component_cycle(c, cycle_buffer());
        record->add(cycle_buffer());
      }
      out.certificate = std::make_shared<const CycleCertificate>(*record);
    }
    return out;
  }
  // One component: record its witness C0 and, for each swap the search
  // applies (each reverses a link of C0), a cycle the swap left.
  const bool recording = record != nullptr && cyclic == 1;
  if (recording) {
    record->clear();
    graph.component_cycle(0, cycle_buffer());
    record->add(cycle_buffer());
    record->swapped.assign(cycle_buffer().size(), 0);
  }
  // `head` is the head of the link the swap reversed.
  auto note_rejected_swap = [&](std::uint32_t head) {
    if (!recording || len || !graph.swap_cycle(cycle_buffer())) return;
    const std::span<const CycleArc> c0 = record->cycle(0);
    for (std::size_t k = 0; k < c0.size(); ++k) {
      if (c0[k].op != head) continue;
      record->swapped[(k + c0.size() - 1) % c0.size()] =
          record->add(cycle_buffer());
      return;
    }
  };

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
  auto op_controllability_key = [&](dfg::OpId op) {
    // Smaller = operands closer to primary inputs.
    int best = INT_MAX;
    for (dfg::VarId in : g.op(op).inputs) {
      etpn::RegId r = b.reg_of(in);
      if (!r.valid()) continue;
      const int d = reg_distance(r);
      if (d >= 0) best = std::min(best, d);
    }
    return best;
  };
  // Whether the swapped order replaces the incumbent; `keys` yields the
  // SR keys (swapped-out first member, swapped-in first member).
  auto keep_swap = [&](const std::optional<int>& len_swap, auto&& keys) {
    if (!len) return len_swap.has_value();  // only the swap is feasible
    if (!len_swap) return false;
    if (strategy == OrderStrategy::Testability) {
      const auto [ka, kb] = keys();
      if (ka != kb) return kb < ka;  // SR2: more controllable operands first
    }
    return *len_swap < *len;  // critical-path fallback
  };

  for (std::size_t c = 0; c < graph.num_module_chains(); ++c) {
    const std::span<const dfg::OpId> chain = graph.module_chain(c);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      // Candidate orders: as-is and swapped.  Non-tied pairs keep the
      // incumbent order unless it is infeasible (the paper's two
      // "possibilities" are explored only where the merger created a new
      // ordering decision).
      const bool tied = hint.step(chain[i]) == hint.step(chain[i + 1]);
      if (!tied && len) continue;  // keep incumbent order
      const std::uint32_t head = chain[i + 1].value();
      const std::optional<int> len_swap = graph.try_swap_module(c, i);
      // The chain view shows the swapped order now.
      if (keep_swap(len_swap, [&] {
            return std::pair{op_controllability_key(chain[i + 1]),
                             op_controllability_key(chain[i])};
          })) {
        graph.keep();
        len = len_swap;
      } else {
        note_rejected_swap(head);
        graph.revert();
      }
    }
  }

  // SR1 at the variable level: let the variable whose defining op has the
  // more controllable operands expire first.
  auto var_key = [&](dfg::VarId v) {
    const dfg::OpId def = g.var(v).def;
    return def.valid() ? op_controllability_key(def) : -1;
  };
  for (std::size_t c = 0; c < graph.num_register_chains(); ++c) {
    const std::span<const dfg::VarId> chain = graph.register_chain(c);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      if (fixed_register_pair(g, chain[i], chain[i + 1])) continue;
      const bool tied = var_order_key(g, hint, chain[i]) ==
                        var_order_key(g, hint, chain[i + 1]);
      if (!tied && len) continue;
      const dfg::OpId head = g.var(chain[i + 1]).def;
      const std::optional<int> len_swap = graph.try_swap_register(c, i);
      if (keep_swap(len_swap, [&] {
            return std::pair{var_key(chain[i + 1]), var_key(chain[i])};
          })) {
        graph.keep();
        len = len_swap;
      } else {
        if (head.valid()) note_rejected_swap(head.value());
        graph.revert();
      }
    }
  }

  if (cyclic == 1) {
    out.cycles = len ? CycleVerdict::Rescued : CycleVerdict::Unrescued;
  }
  if (!len) {
    // A swap the search could not apply (an undefined register order)
    // left no cycle, and a record without it could never pass.
    if (recording &&
        check_certificate(g, *record, graph) == CertificateCheck::Proved) {
      out.certificate = std::make_shared<const CycleCertificate>(*record);
    }
    return out;
  }
  out.feasible = true;
  out.schedule = *graph.schedule();
  return out;
}

}  // namespace

ReschedOutcome reschedule(const dfg::Dfg& g, const etpn::Binding& b,
                          const sched::Schedule& hint,
                          OrderStrategy strategy,
                          const etpn::Etpn* premerged) {
  HLTS_FAILPOINT("sched.reschedule");
  // --- derive initial chains from the previous schedule ---------------------
  sched::ConstraintGraph graph(g);
  add_chains(g, b, hint, graph);
  if (graph.contradicted()) return {};
  // Register distances are a pure BFS over the alive data-path topology --
  // step annotations never enter -- so a caller-supplied merge-patched graph
  // (structurally identical, stale steps) yields the same distances as the
  // fresh build and therefore the identical schedule.  They are derived on
  // first use: most reschedules never compare two feasible tied orders.
  std::optional<etpn::Etpn> local_e;
  std::optional<etpn::DataPath::RegisterDistances> dist;
  auto reg_distance = [&](etpn::RegId r) {
    if (!dist) {
      if (premerged == nullptr) {
        local_e.emplace(etpn::build_data_path(g, hint, b));
        premerged = &*local_e;
      }
      dist = premerged->data_path.register_distances();
    }
    return dist->d_in[premerged->reg_node[r].index()];
  };
  ReschedOutcome out = search_orders(g, b, hint, strategy, reg_distance,
                                     graph, graph.schedule_length());
  HLTS_REQUIRE(!out.feasible || schedule_respects_binding(g, b, out.schedule),
               "rescheduler produced a schedule violating the binding");
  return out;
}

void build_trial_base(const dfg::Dfg& g, const sched::ConstraintTables& tables,
                      const etpn::Binding& b, const sched::Schedule& hint,
                      sched::ConstraintGraph& graph) {
  graph.reset(tables);
  add_chains(g, b, hint, graph);
  (void)graph.schedule_length();
  graph.save_base();
}

ReschedOutcome reschedule_merger(const dfg::Dfg& g, const etpn::Binding& b,
                                 const sched::Schedule& hint,
                                 OrderStrategy strategy,
                                 const MergerDistances& dist,
                                 const testability::MergeCandidate& cand,
                                 sched::ConstraintGraph& graph,
                                 const std::shared_ptr<const CycleCertificate>&
                                     certificate) {
  HLTS_FAILPOINT("sched.reschedule");
  // A merger appends the second group's members to the first's, and a
  // stable sort of that concatenation is the stable merge of the two
  // sorted base chains, ties to the first: the chain a fresh build sorts.
  // A merge that throws leaves the base untouched.
  if (cand.is_modules()) {
    sort_module_chain(hint, graph.merge_module_chains(cand.module_a.index(),
                                                      cand.module_b.index()));
  } else {
    sort_register_chain(g, hint,
                        graph.merge_register_chains(cand.reg_a.index(),
                                                    cand.reg_b.index()));
  }
  // However the trial ends from here, the graph goes back to the base.
  struct Restore {
    sched::ConstraintGraph& graph;
    ~Restore() { graph.restore_base(); }
  } restore{graph};
  if (graph.contradicted()) return {};
  CertificateCheck check = CertificateCheck::None;
  if (certificate != nullptr) {
    graph.link_merge();
    check = check_certificate(g, *certificate, graph);
    if (check == CertificateCheck::Proved) {
      ReschedOutcome out;
      out.cycles = CycleVerdict::Certified;
      out.check = check;
      out.certificate = certificate;
      return out;
    }
  }
  // The merged design's distances: the committed ones, lowered where the
  // merger's new register hops shorten a path, on first use.  The survivor
  // keeps the committed node ids, so the committed node maps stay valid.
  bool merged = false;
  auto reg_distance = [&](etpn::RegId r) {
    if (!merged) {
      const auto [into, from] = cand.nodes(dist.committed);
      dist.reach.merged_d_in(dist.committed.data_path, into, from, dist.d_in,
                             dist.queue);
      merged = true;
    }
    return dist.d_in[dist.committed.reg_node[r].index()];
  };
  // The record a cyclic trial leaves, reused across the thread's trials.
  thread_local CycleCertificate record;
  ReschedOutcome out = search_orders(g, b, hint, strategy, reg_distance,
                                     graph, graph.solve_merge(), &record);
  out.check = check;
  return out;
}

}  // namespace hlts::core
