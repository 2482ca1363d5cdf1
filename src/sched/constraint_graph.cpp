#include "sched/constraint_graph.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace hlts::sched {

namespace {

/// Turns per-slot counts at begin[1..n] into CSR offsets: begin[k] becomes
/// the first index of slot k.
void prefix_sum(std::vector<std::uint32_t>& begin) {
  for (std::size_t k = 1; k < begin.size(); ++k) begin[k] += begin[k - 1];
}

/// After slot k's entries were placed at begin[k]++ each, shifts the
/// offsets back so begin[k] is again slot k's first index.
void unshift(std::vector<std::uint32_t>& begin) {
  for (std::size_t k = begin.size() - 1; k > 0; --k) begin[k] = begin[k - 1];
  begin[0] = 0;
}

}  // namespace

ConstraintGraph::ConstraintGraph(const dfg::Dfg& g) { reset(g); }

void ConstraintGraph::reset(const dfg::Dfg& g) {
  num_ops_ = g.num_ops();
  linked_ = false;
  solved_ = false;
  pending_ = ArcKind::None;

  arcs_.clear();
  op_output_.assign(num_ops_, kNone);
  for (dfg::OpId op : g.op_ids()) {
    const dfg::Operation& o = g.op(op);
    if (o.output.valid()) op_output_[op.index()] = o.output.value();
    for (dfg::VarId in : o.inputs) {
      const dfg::OpId def = g.var(in).def;
      if (def.valid()) arcs_.push_back({def.value(), op.value(), 1});
    }
  }

  const std::size_t num_vars = g.num_vars();
  var_def_.assign(num_vars, kNone);
  release_begin_.assign(num_vars + 1, 0);
  release_ops_.clear();
  released_begin_.assign(num_ops_ + 1, 0);
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    if (var.def.valid()) var_def_[v.index()] = var.def.value();
    release_begin_[v.index()] = static_cast<std::uint32_t>(release_ops_.size());
    if (!var.uses.empty()) {
      for (dfg::OpId use : var.uses) release_ops_.push_back(use.value());
    } else if (var.def.valid()) {
      release_ops_.push_back(var.def.value());
    }
  }
  release_begin_[num_vars] = static_cast<std::uint32_t>(release_ops_.size());
  for (std::uint32_t op : release_ops_) ++released_begin_[op + 1];
  prefix_sum(released_begin_);
  released_vars_.resize(release_ops_.size());
  for (std::uint32_t v = 0; v < num_vars; ++v) {
    for (std::uint32_t k = release_begin_[v]; k < release_begin_[v + 1]; ++k) {
      released_vars_[released_begin_[release_ops_[k]]++] = v;
    }
  }
  unshift(released_begin_);

  module_chain_begin_.clear();
  module_chain_ops_.clear();
  register_chain_begin_.clear();
  register_chain_vars_.clear();
}

void ConstraintGraph::add_arc(dfg::OpId from, dfg::OpId to, int weight) {
  HLTS_REQUIRE(from.index() < num_ops_ && to.index() < num_ops_,
               "constraint arc references unknown operation");
  HLTS_REQUIRE(weight >= 0, "constraint arc weight must be non-negative");
  arcs_.push_back({from.value(), to.value(), weight});
  linked_ = false;
}

std::span<dfg::OpId> ConstraintGraph::add_module_chain(
    std::span<const dfg::OpId> ops) {
  for (dfg::OpId op : ops) {
    HLTS_REQUIRE(op.index() < num_ops_,
                 "module chain references unknown operation");
  }
  const std::size_t begin = module_chain_ops_.size();
  module_chain_begin_.push_back(static_cast<std::uint32_t>(begin));
  module_chain_ops_.insert(module_chain_ops_.end(), ops.begin(), ops.end());
  linked_ = false;
  return {module_chain_ops_.data() + begin, ops.size()};
}

std::span<dfg::VarId> ConstraintGraph::add_register_chain(
    std::span<const dfg::VarId> vars) {
  for (dfg::VarId v : vars) {
    HLTS_REQUIRE(v.index() < var_def_.size(),
                 "register chain references unknown variable");
  }
  const std::size_t begin = register_chain_vars_.size();
  register_chain_begin_.push_back(static_cast<std::uint32_t>(begin));
  register_chain_vars_.insert(register_chain_vars_.end(), vars.begin(),
                              vars.end());
  linked_ = false;
  return {register_chain_vars_.data() + begin, vars.size()};
}

std::span<const dfg::OpId> ConstraintGraph::module_chain(std::size_t c) const {
  const std::size_t begin = module_chain_begin_[c];
  const std::size_t end = c + 1 < module_chain_begin_.size()
                              ? module_chain_begin_[c + 1]
                              : module_chain_ops_.size();
  return {module_chain_ops_.data() + begin, end - begin};
}

std::span<const dfg::VarId> ConstraintGraph::register_chain(
    std::size_t c) const {
  const std::size_t begin = register_chain_begin_[c];
  const std::size_t end = c + 1 < register_chain_begin_.size()
                              ? register_chain_begin_[c + 1]
                              : register_chain_vars_.size();
  return {register_chain_vars_.data() + begin, end - begin};
}

void ConstraintGraph::link() {
  succ_begin_.assign(num_ops_ + 1, 0);
  pred_begin_.assign(num_ops_ + 1, 0);
  for (const Arc& a : arcs_) {
    ++succ_begin_[a.from + 1];
    ++pred_begin_[a.to + 1];
  }
  prefix_sum(succ_begin_);
  prefix_sum(pred_begin_);
  succ_.resize(arcs_.size());
  pred_.resize(arcs_.size());
  for (const Arc& a : arcs_) {
    succ_[succ_begin_[a.from]++] = a;
    pred_[pred_begin_[a.to]++] = a;
  }
  unshift(succ_begin_);
  unshift(pred_begin_);

  // Chain links.  Each op (variable) may sit in at most one chain position.
  mark_.assign(std::max(num_ops_, var_def_.size()), 0);
  epoch_ = 1;
  module_next_.assign(num_ops_, kNone);
  module_prev_.assign(num_ops_, kNone);
  for (dfg::OpId op : module_chain_ops_) {
    HLTS_REQUIRE(mark_[op.index()] != epoch_,
                 "operation in more than one module-chain position");
    mark_[op.index()] = epoch_;
  }
  for (std::size_t c = 0; c < num_module_chains(); ++c) {
    const std::span<const dfg::OpId> chain = module_chain(c);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      module_next_[chain[i].index()] = chain[i + 1].value();
      module_prev_[chain[i + 1].index()] = chain[i].value();
    }
  }
  next_epoch();
  register_next_.assign(var_def_.size(), kNone);
  register_prev_.assign(var_def_.size(), kNone);
  for (dfg::VarId v : register_chain_vars_) {
    HLTS_REQUIRE(mark_[v.index()] != epoch_,
                 "variable in more than one register-chain position");
    mark_[v.index()] = epoch_;
  }
  undefined_ = 0;
  for (std::size_t c = 0; c < num_register_chains(); ++c) {
    const std::span<const dfg::VarId> chain = register_chain(c);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      register_next_[chain[i].index()] = chain[i + 1].value();
      register_prev_[chain[i + 1].index()] = chain[i].value();
      if (var_def_[chain[i + 1].index()] == kNone) ++undefined_;
    }
  }

  value_.resize(num_ops_);
  indegree_.resize(num_ops_);
  local_.resize(num_ops_);
  linked_ = true;
}

template <typename F>
void ConstraintGraph::for_each_pred(std::uint32_t v, F&& f) const {
  for (std::uint32_t k = pred_begin_[v]; k < pred_begin_[v + 1]; ++k) {
    f(pred_[k].from, pred_[k].weight);
  }
  if (module_prev_[v] != kNone) f(module_prev_[v], 1);
  // v writes op_output_[v]: it waits for the last reads of the variable
  // before it in that variable's register.
  const std::uint32_t out = op_output_[v];
  if (out == kNone) return;
  const std::uint32_t before = register_prev_[out];
  if (before == kNone) return;
  for (std::uint32_t k = release_begin_[before]; k < release_begin_[before + 1];
       ++k) {
    f(release_ops_[k], 0);
  }
}

template <typename F>
void ConstraintGraph::for_each_succ(std::uint32_t u, F&& f) const {
  for (std::uint32_t k = succ_begin_[u]; k < succ_begin_[u + 1]; ++k) {
    f(succ_[k].to, succ_[k].weight);
  }
  if (module_next_[u] != kNone) f(module_next_[u], 1);
  // Every variable whose lifetime u ends lets its register's next variable
  // be written.
  for (std::uint32_t k = released_begin_[u]; k < released_begin_[u + 1];
       ++k) {
    const std::uint32_t after = register_next_[released_vars_[k]];
    if (after != kNone && var_def_[after] != kNone) f(var_def_[after], 0);
  }
}

void ConstraintGraph::close_cone() {
  for (std::size_t k = 0; k < cone_.size(); ++k) {
    for_each_succ(cone_[k], [&](std::uint32_t x, int) {
      if (mark_[x] == epoch_) return;
      mark_[x] = epoch_;
      cone_.push_back(x);
    });
  }
}

std::optional<int> ConstraintGraph::solve_cone() {
  // Ops outside the cone keep their steps only if they were resolved: a
  // cycle the edit did not reach still blocks them.
  cone_solved_ = false;
  for (std::uint32_t v : unresolved_) {
    if (mark_[v] != epoch_) return std::nullopt;
  }
  cone_solved_ = true;

  // Kahn's algorithm over the cone; zero-weight arcs still count for
  // ordering, so any directed cycle (even all-zero-weight) is rejected.
  // All-zero-weight cycles would actually be satisfiable, but they only
  // arise from contradictory lifetime orders, which we want to reject.
  for (std::uint32_t v : cone_) {
    value_[v] = 1;
    indegree_[v] = 0;
    for_each_pred(v, [&](std::uint32_t u, int w) {
      if (mark_[u] == epoch_) {
        ++indegree_[v];
      } else {
        value_[v] = std::max(value_[v], step_[u] + w);
      }
    });
  }
  stack_.clear();
  for (std::uint32_t v : cone_) {
    if (indegree_[v] == 0) stack_.push_back(v);
  }
  std::size_t done = 0;
  cone_top_ = 0;
  while (!stack_.empty()) {
    const std::uint32_t u = stack_.back();
    stack_.pop_back();
    ++done;
    cone_top_ = std::max(cone_top_, value_[u]);
    for_each_succ(u, [&](std::uint32_t x, int w) {
      value_[x] = std::max(value_[x], value_[u] + w);
      if (--indegree_[x] == 0) stack_.push_back(x);
    });
  }
  if (done != cone_.size() || undefined_ > 0) return std::nullopt;

  // Length: the cone's largest step against the largest step outside it.
  for (std::uint32_t v : cone_) {
    if (resolved_[v]) --step_count_[step_[v]];
  }
  int outside = top_;
  while (outside > 0 && step_count_[outside] == 0) --outside;
  for (std::uint32_t v : cone_) {
    if (resolved_[v]) ++step_count_[step_[v]];
  }
  return std::max(outside, cone_top_);
}

void ConstraintGraph::commit_cone() {
  cycles_labelled_ = false;
  // Every unresolved op is inside the cone (solve_cone checked), so the
  // cone's leftovers are the new unresolved set.
  unresolved_.clear();
  for (std::uint32_t v : cone_) {
    if (resolved_[v]) --step_count_[step_[v]];
    resolved_[v] = indegree_[v] == 0;
    if (!resolved_[v]) {
      unresolved_.push_back(v);
      continue;
    }
    step_[v] = value_[v];
    const auto at = static_cast<std::size_t>(value_[v]);
    if (at >= step_count_.size()) step_count_.resize(at + 1, 0);
    ++step_count_[at];
  }
  top_ = std::max(top_, cone_top_);
  while (top_ > 0 && step_count_[top_] == 0) --top_;
}

std::optional<int> ConstraintGraph::solve_all() {
  step_.assign(num_ops_, 0);
  resolved_.assign(num_ops_, 0);
  step_count_.assign(num_ops_ + 2, 0);
  top_ = 0;
  unresolved_.clear();
  next_epoch();
  cone_.clear();
  for (std::uint32_t v = 0; v < num_ops_; ++v) {
    mark_[v] = epoch_;
    cone_.push_back(v);
  }
  const std::optional<int> length = solve_cone();
  commit_cone();
  solved_ = true;
  return length;
}

void ConstraintGraph::next_epoch() {
  if (++epoch_ == 0) {  // wrapped: stale marks could collide
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }
}

std::optional<Schedule> ConstraintGraph::solve() {
  if (!schedule_length()) return std::nullopt;
  return schedule();
}

std::optional<int> ConstraintGraph::schedule_length() {
  HLTS_REQUIRE(pending_ == ArcKind::None,
               "constraint graph solved with a swap pending");
  if (!linked_) link();
  return solve_all();
}

std::optional<Schedule> ConstraintGraph::schedule() const {
  HLTS_REQUIRE(solved_, "constraint graph has no solution yet");
  if (!unresolved_.empty() || undefined_ > 0) return std::nullopt;
  Schedule s(num_ops_);
  for (std::uint32_t v = 0; v < num_ops_; ++v) {
    s.set_step(dfg::OpId{v}, step_[v]);
  }
  return s;
}

void ConstraintGraph::swap_module(std::size_t c, std::size_t i) {
  const std::span<const dfg::OpId> chain = module_chain(c);
  HLTS_REQUIRE(i + 1 < chain.size(), "module-chain swap out of range");
  // p -> a -> b -> n  becomes  p -> b -> a -> n.
  const std::uint32_t a = chain[i].value();
  const std::uint32_t b = chain[i + 1].value();
  const std::uint32_t p = i > 0 ? chain[i - 1].value() : kNone;
  const std::uint32_t n = i + 2 < chain.size() ? chain[i + 2].value() : kNone;
  if (p != kNone) module_next_[p] = b;
  module_prev_[b] = p;
  module_next_[b] = a;
  module_prev_[a] = b;
  module_next_[a] = n;
  if (n != kNone) module_prev_[n] = a;
  std::swap(module_chain_ops_[module_chain_begin_[c] + i],
            module_chain_ops_[module_chain_begin_[c] + i + 1]);
}

void ConstraintGraph::swap_register(std::size_t c, std::size_t i) {
  const std::span<const dfg::VarId> chain = register_chain(c);
  HLTS_REQUIRE(i + 1 < chain.size(), "register-chain swap out of range");
  const std::uint32_t x = chain[i].value();
  const std::uint32_t y = chain[i + 1].value();
  const std::uint32_t p = i > 0 ? chain[i - 1].value() : kNone;
  const std::uint32_t n = i + 2 < chain.size() ? chain[i + 2].value() : kNone;
  if (p != kNone) register_next_[p] = y;
  register_prev_[y] = p;
  register_next_[y] = x;
  register_prev_[x] = y;
  register_next_[x] = n;
  if (n != kNone) register_prev_[n] = x;
  std::swap(register_chain_vars_[register_chain_begin_[c] + i],
            register_chain_vars_[register_chain_begin_[c] + i + 1]);
}

int ConstraintGraph::undefined_pairs(std::size_t c, std::size_t i) const {
  const std::span<const dfg::VarId> chain = register_chain(c);
  int count = 0;
  for (std::size_t later = std::max<std::size_t>(i, 1);
       later <= i + 2 && later < chain.size(); ++later) {
    if (var_def_[chain[later].index()] == kNone) ++count;
  }
  return count;
}

void ConstraintGraph::begin_edit() {
  HLTS_REQUIRE(solved_ && linked_,
               "constraint-graph swap needs a solved incumbent");
  HLTS_REQUIRE(pending_ == ArcKind::None,
               "constraint-graph swap while another is pending");
  if (!unresolved_.empty() && !cycles_labelled_) label_cycles();
  next_epoch();
  cone_.clear();
}

void ConstraintGraph::seed(std::uint32_t op) {
  if (op == kNone || mark_[op] == epoch_) return;
  mark_[op] = epoch_;
  cone_.push_back(op);
}

std::optional<int> ConstraintGraph::try_swap_module(std::size_t c,
                                                    std::size_t i) {
  begin_edit();
  swap_module(c, i);
  pending_ = ArcKind::Module;
  pending_chain_ = c;
  pending_pos_ = i;
  // The ops whose incoming chain arcs changed: the swapped pair and the
  // member after it.
  const std::span<const dfg::OpId> chain = module_chain(c);
  for (std::size_t k = i; k <= i + 2 && k < chain.size(); ++k) {
    seed(chain[k].value());
  }
  return evaluate_swap(chain[i].value());
}

std::optional<int> ConstraintGraph::try_swap_register(std::size_t c,
                                                      std::size_t i) {
  begin_edit();
  pending_undefined_ = undefined_;
  undefined_ -= undefined_pairs(c, i);
  swap_register(c, i);
  undefined_ += undefined_pairs(c, i);
  pending_ = ArcKind::Register;
  pending_chain_ = c;
  pending_pos_ = i;
  // The definitions whose incoming last-read arcs changed: those of the
  // swapped pair and of the member after it.
  const std::span<const dfg::VarId> chain = register_chain(c);
  for (std::size_t k = i; k <= i + 2 && k < chain.size(); ++k) {
    seed(var_def_[chain[k].index()]);
  }
  return evaluate_swap(var_def_[chain[i].index()]);
}

std::optional<int> ConstraintGraph::evaluate_swap(std::uint32_t reversed) {
  cone_solved_ = false;
  if (undefined_ > 0 || !may_break_cycles(reversed)) return std::nullopt;
  close_cone();
  return solve_cone();
}

bool ConstraintGraph::may_break_cycles(std::uint32_t reversed) const {
  if (unresolved_.empty()) return true;
  // Swapping first and second replaces the other removed arcs by paths of
  // the edited graph: p->a by p->b->a and b->n by b->a->n in a module
  // chain; release(p)->def(x) by release(p)->def(y)->release(y)->def(x)
  // and release(y)->def(q) by release(y)->def(x)->release(x)->def(q) in a
  // register chain (a chain position holding a primary input makes the
  // edit infeasible anyway).  So every cycle that does not enter the
  // second member from the first survives as a closed walk.  With two
  // cyclic components the reversed link lies inside at most one of them,
  // and the other keeps its cycles; with one, its witness must use it.
  return num_cycles_ == 1 && reversed != kNone &&
         witness_in_[reversed] == pending_;
}

void ConstraintGraph::label_cycles() {
  // Every cycle lies among the incumbent's unresolved ops: Tarjan's
  // algorithm over the subgraph they induce, iteratively.
  const auto m = static_cast<std::uint32_t>(unresolved_.size());
  next_epoch();
  for (std::uint32_t k = 0; k < m; ++k) {
    mark_[unresolved_[k]] = epoch_;
    local_[unresolved_[k]] = k;
  }
  sub_begin_.assign(m + 1, 0);
  sub_adj_.clear();
  for (std::uint32_t k = 0; k < m; ++k) {
    sub_begin_[k] = static_cast<std::uint32_t>(sub_adj_.size());
    for_each_succ(unresolved_[k], [&](std::uint32_t x, int) {
      if (mark_[x] == epoch_) sub_adj_.push_back(local_[x]);
    });
  }
  sub_begin_[m] = static_cast<std::uint32_t>(sub_adj_.size());

  cycle_of_.assign(num_ops_, kNone);
  num_cycles_ = 0;
  order_.assign(m, kNone);  // DFS discovery index
  low_.assign(m, 0);
  on_stack_.assign(m, 0);
  tarjan_stack_.clear();
  std::uint32_t discovered = 0;
  auto discover = [&](std::uint32_t v) {
    order_[v] = low_[v] = discovered++;
    tarjan_stack_.push_back(v);
    on_stack_[v] = 1;
    frames_.push_back({v, sub_begin_[v]});
  };
  for (std::uint32_t root = 0; root < m; ++root) {
    if (order_[root] != kNone) continue;
    frames_.clear();
    discover(root);
    while (!frames_.empty()) {
      const std::uint32_t v = frames_.back().node;
      if (frames_.back().next < sub_begin_[v + 1]) {
        const std::uint32_t w = sub_adj_[frames_.back().next++];
        if (order_[w] == kNone) {
          discover(w);
        } else if (on_stack_[w]) {
          low_[v] = std::min(low_[v], order_[w]);
        }
        continue;
      }
      frames_.pop_back();
      if (!frames_.empty()) {
        const std::uint32_t parent = frames_.back().node;
        low_[parent] = std::min(low_[parent], low_[v]);
      }
      if (low_[v] != order_[v]) continue;
      // v roots a component: it is cyclic when it has two members or a
      // self-loop.
      const bool single = tarjan_stack_.back() == v;
      const bool cyclic =
          !single || std::find(sub_adj_.begin() + sub_begin_[v],
                               sub_adj_.begin() + sub_begin_[v + 1],
                               v) != sub_adj_.begin() + sub_begin_[v + 1];
      std::uint32_t w = kNone;
      do {
        w = tarjan_stack_.back();
        tarjan_stack_.pop_back();
        on_stack_[w] = 0;
        if (cyclic) cycle_of_[unresolved_[w]] = num_cycles_;
      } while (w != v);
      if (cyclic) {
        cycle_root_ = unresolved_[v];
        ++num_cycles_;
      }
    }
  }

  // Only a lone cyclic component's witness can decide anything (see
  // may_break_cycles).
  witness_in_.assign(num_ops_, ArcKind::None);
  if (num_cycles_ == 1) find_witness();
  cycles_labelled_ = true;
}

void ConstraintGraph::find_witness() {
  // Every member of the cyclic component has a successor inside it; fixed
  // arcs are preferred because no swap removes them.
  const std::uint32_t c = cycle_of_[cycle_root_];
  auto step = [&](std::uint32_t u) -> std::pair<std::uint32_t, ArcKind> {
    for (std::uint32_t k = succ_begin_[u]; k < succ_begin_[u + 1]; ++k) {
      if (cycle_of_[succ_[k].to] == c) return {succ_[k].to, ArcKind::Fixed};
    }
    if (module_next_[u] != kNone && cycle_of_[module_next_[u]] == c) {
      return {module_next_[u], ArcKind::Module};
    }
    for (std::uint32_t k = released_begin_[u]; k < released_begin_[u + 1];
         ++k) {
      const std::uint32_t after = register_next_[released_vars_[k]];
      if (after == kNone || var_def_[after] == kNone) continue;
      if (cycle_of_[var_def_[after]] == c) {
        return {var_def_[after], ArcKind::Register};
      }
    }
    HLTS_REQUIRE(false, "cyclic component member without a successor in it");
    return {kNone, ArcKind::None};
  };
  walk_.clear();
  next_epoch();
  std::uint32_t u = cycle_root_;
  while (mark_[u] != epoch_) {
    mark_[u] = epoch_;
    const auto [next, kind] = step(u);
    walk_.push_back({u, kind});
    u = next;
  }
  // u closed the cycle: tag the arcs from u's first visit onward.
  std::size_t at = 0;
  while (walk_[at].first != u) ++at;
  for (std::size_t i = at; i < walk_.size(); ++i) {
    const std::uint32_t head = i + 1 < walk_.size() ? walk_[i + 1].first : u;
    witness_in_[head] = walk_[i].second;
  }
}

void ConstraintGraph::keep() {
  HLTS_REQUIRE(pending_ != ArcKind::None, "no constraint-graph swap pending");
  pending_ = ArcKind::None;
  if (cone_solved_) {
    commit_cone();
  } else {
    (void)solve_all();  // a cycle outside the cone: re-derive from scratch
  }
}

void ConstraintGraph::revert() {
  HLTS_REQUIRE(pending_ != ArcKind::None, "no constraint-graph swap pending");
  if (pending_ == ArcKind::Module) {
    swap_module(pending_chain_, pending_pos_);
  } else {
    swap_register(pending_chain_, pending_pos_);
    undefined_ = pending_undefined_;
  }
  pending_ = ArcKind::None;
}

}  // namespace hlts::sched
