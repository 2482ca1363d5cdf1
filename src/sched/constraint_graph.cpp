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

void ConstraintTables::assign(const dfg::Dfg& g) {
  num_ops_ = g.num_ops();
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
  var_flags_.assign(num_vars, 0);
  release_begin_.assign(num_vars + 1, 0);
  release_ops_.clear();
  released_begin_.assign(num_ops_ + 1, 0);
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    if (var.def.valid()) var_def_[v.index()] = var.def.value();
    if (var.is_primary_input) var_flags_[v.index()] |= kBornAtLoad;
    if (var.is_primary_output && var.po_registered) {
      var_flags_[v.index()] |= kHeldToEnd;
    }
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
  linked_ = false;
  link();
}

void ConstraintTables::add_arc(Arc a) {
  arcs_.push_back(a);
  linked_ = false;
}

void ConstraintTables::link() {
  if (linked_) return;
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
  linked_ = true;
}

ConstraintGraph::ConstraintGraph(const dfg::Dfg& g) { reset(g); }

void ConstraintGraph::reset(const dfg::Dfg& g) {
  shared_ = nullptr;
  own_.assign(g);
  clear_chains();
}

void ConstraintGraph::reset(const ConstraintTables& tables) {
  shared_ = &tables;
  clear_chains();
}

void ConstraintGraph::clear_chains() {
  linked_ = false;
  solved_ = false;
  pending_ = ArcKind::None;
  has_base_ = false;
  kept_.clear();
  merged_ = ArcKind::None;
  merge_linked_ = false;
  module_chain_begin_.clear();
  module_chain_size_.clear();
  module_chain_ops_.clear();
  register_chain_begin_.clear();
  register_chain_size_.clear();
  register_chain_vars_.clear();
  register_chain_contradicted_.clear();
  contradictions_ = 0;
}

void ConstraintGraph::add_arc(dfg::OpId from, dfg::OpId to, int weight) {
  HLTS_REQUIRE(shared_ == nullptr,
               "constraint arcs need the graph's own tables");
  HLTS_REQUIRE(from.index() < num_ops() && to.index() < num_ops(),
               "constraint arc references unknown operation");
  HLTS_REQUIRE(weight >= 0, "constraint arc weight must be non-negative");
  own_.add_arc({from.value(), to.value(), weight});
  linked_ = false;
  has_base_ = false;
}

std::span<dfg::OpId> ConstraintGraph::add_module_chain(
    std::span<const dfg::OpId> ops) {
  HLTS_REQUIRE(merged_ == ArcKind::None, "chain added during a merge");
  for (dfg::OpId op : ops) {
    HLTS_REQUIRE(op.index() < num_ops(),
                 "module chain references unknown operation");
  }
  const std::size_t begin = module_chain_ops_.size();
  module_chain_begin_.push_back(static_cast<std::uint32_t>(begin));
  module_chain_size_.push_back(static_cast<std::uint32_t>(ops.size()));
  module_chain_ops_.insert(module_chain_ops_.end(), ops.begin(), ops.end());
  linked_ = false;
  has_base_ = false;
  return {module_chain_ops_.data() + begin, ops.size()};
}

std::span<dfg::VarId> ConstraintGraph::add_register_chain(
    std::span<const dfg::VarId> vars) {
  HLTS_REQUIRE(merged_ == ArcKind::None, "chain added during a merge");
  for (dfg::VarId v : vars) {
    HLTS_REQUIRE(v.index() < tables().num_vars(),
                 "register chain references unknown variable");
  }
  const std::size_t begin = register_chain_vars_.size();
  register_chain_begin_.push_back(static_cast<std::uint32_t>(begin));
  register_chain_size_.push_back(static_cast<std::uint32_t>(vars.size()));
  register_chain_vars_.insert(register_chain_vars_.end(), vars.begin(),
                              vars.end());
  const bool contradicted = contradictory(vars);
  register_chain_contradicted_.push_back(contradicted ? 1 : 0);
  if (contradicted) ++contradictions_;
  linked_ = false;
  has_base_ = false;
  return {register_chain_vars_.data() + begin, vars.size()};
}

bool ConstraintGraph::contradictory(std::span<const dfg::VarId> chain) const {
  int born = 0;
  int held = 0;
  for (dfg::VarId v : chain) {
    const std::uint8_t flags = tables().var_flags_[v.index()];
    if (flags & ConstraintTables::kBornAtLoad) ++born;
    if (flags & ConstraintTables::kHeldToEnd) ++held;
  }
  return born > 1 || held > 1;
}

std::span<const dfg::OpId> ConstraintGraph::module_chain(std::size_t c) const {
  return {module_chain_ops_.data() + module_chain_begin_[c],
          module_chain_size_[c]};
}

std::span<const dfg::VarId> ConstraintGraph::register_chain(
    std::size_t c) const {
  return {register_chain_vars_.data() + register_chain_begin_[c],
          register_chain_size_[c]};
}

void ConstraintGraph::link() {
  if (shared_ == nullptr) own_.link();
  const std::size_t ops = num_ops();
  const std::size_t vars = tables().num_vars();

  // Chain links.  Each op (variable) may sit in at most one chain position.
  mark_.assign(std::max(ops, vars), 0);
  epoch_ = 1;
  module_next_.assign(ops, kNone);
  module_prev_.assign(ops, kNone);
  for (std::size_t c = 0; c < num_module_chains(); ++c) {
    for (dfg::OpId op : module_chain(c)) {
      HLTS_REQUIRE(mark_[op.index()] != epoch_,
                   "operation in more than one module-chain position");
      mark_[op.index()] = epoch_;
    }
    link_module_chain(module_chain(c), false);
  }
  next_epoch();
  register_next_.assign(vars, kNone);
  register_prev_.assign(vars, kNone);
  undefined_ = 0;
  for (std::size_t c = 0; c < num_register_chains(); ++c) {
    for (dfg::VarId v : register_chain(c)) {
      HLTS_REQUIRE(mark_[v.index()] != epoch_,
                   "variable in more than one register-chain position");
      mark_[v.index()] = epoch_;
    }
    link_register_chain(register_chain(c), false);
    undefined_ += undefined_members(register_chain(c));
  }

  value_.resize(ops);
  indegree_.resize(ops);
  local_.resize(ops);
  label_mark_.assign(ops, 0);
  label_epoch_ = 1;
  cycle_of_.resize(ops);
  witness_in_.resize(ops);
  linked_ = true;
}

void ConstraintGraph::link_module_chain(std::span<const dfg::OpId> chain,
                                        bool seed_changed) {
  for (std::size_t k = 0; k < chain.size(); ++k) {
    const std::uint32_t op = chain[k].value();
    const std::uint32_t prev = k > 0 ? chain[k - 1].value() : kNone;
    if (seed_changed && module_prev_[op] != prev) seed(op);
    module_prev_[op] = prev;
    module_next_[op] = k + 1 < chain.size() ? chain[k + 1].value() : kNone;
  }
}

void ConstraintGraph::link_register_chain(std::span<const dfg::VarId> chain,
                                          bool seed_changed) {
  for (std::size_t k = 0; k < chain.size(); ++k) {
    const std::uint32_t v = chain[k].value();
    const std::uint32_t prev = k > 0 ? chain[k - 1].value() : kNone;
    if (seed_changed && register_prev_[v] != prev) {
      seed(tables().var_def_[v]);
    }
    register_prev_[v] = prev;
    register_next_[v] = k + 1 < chain.size() ? chain[k + 1].value() : kNone;
  }
}

int ConstraintGraph::undefined_members(
    std::span<const dfg::VarId> chain) const {
  int count = 0;
  for (std::size_t k = 1; k < chain.size(); ++k) {
    if (tables().var_def_[chain[k].index()] == kNone) ++count;
  }
  return count;
}

template <typename F>
void ConstraintGraph::for_each_pred(std::uint32_t v, F&& f) const {
  const ConstraintTables& t = tables();
  for (std::uint32_t k = t.pred_begin_[v]; k < t.pred_begin_[v + 1]; ++k) {
    f(t.pred_[k].from, t.pred_[k].weight, ArcKind::Fixed);
  }
  if (module_prev_[v] != kNone) f(module_prev_[v], 1, ArcKind::Module);
  // v writes op_output_[v]: it waits for the last reads of the variable
  // before it in that variable's register.
  const std::uint32_t out = t.op_output_[v];
  if (out == kNone) return;
  const std::uint32_t before = register_prev_[out];
  if (before == kNone) return;
  for (std::uint32_t k = t.release_begin_[before];
       k < t.release_begin_[before + 1]; ++k) {
    f(t.release_ops_[k], 0, ArcKind::Register);
  }
}

template <typename F>
void ConstraintGraph::for_each_succ(std::uint32_t u, F&& f) const {
  const ConstraintTables& t = tables();
  for (std::uint32_t k = t.succ_begin_[u]; k < t.succ_begin_[u + 1]; ++k) {
    f(t.succ_[k].to, t.succ_[k].weight, ArcKind::Fixed);
  }
  if (module_next_[u] != kNone) f(module_next_[u], 1, ArcKind::Module);
  // Every variable whose lifetime u ends lets its register's next variable
  // be written.
  for (std::uint32_t k = t.released_begin_[u]; k < t.released_begin_[u + 1];
       ++k) {
    const std::uint32_t after = register_next_[t.released_vars_[k]];
    if (after != kNone && t.var_def_[after] != kNone) {
      f(t.var_def_[after], 0, ArcKind::Register);
    }
  }
}

void ConstraintGraph::close_cone() {
  for (std::size_t k = 0; k < cone_.size(); ++k) {
    for_each_succ(cone_[k], [&](std::uint32_t x, int, ArcKind) {
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
    for_each_pred(v, [&](std::uint32_t u, int w, ArcKind) {
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
    for_each_succ(u, [&](std::uint32_t x, int w, ArcKind) {
      value_[x] = std::max(value_[x], value_[u] + w);
      if (--indegree_[x] == 0) stack_.push_back(x);
    });
  }
  if (done != cone_.size() || undefined_ > 0 || contradictions_ > 0) {
    return std::nullopt;
  }

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
  incumbent_is_base_ = false;
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
  const std::size_t ops = num_ops();
  step_.assign(ops, 0);
  resolved_.assign(ops, 0);
  step_count_.assign(ops + 2, 0);
  top_ = 0;
  unresolved_.clear();
  next_epoch();
  cone_.clear();
  for (std::uint32_t v = 0; v < ops; ++v) {
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
  if (!unresolved_.empty() || undefined_ > 0 || contradictions_ > 0) {
    return std::nullopt;
  }
  Schedule s(num_ops());
  for (std::uint32_t v = 0; v < num_ops(); ++v) {
    s.set_step(dfg::OpId{v}, step_[v]);
  }
  return s;
}

void ConstraintGraph::swap_module(std::size_t c, std::size_t i) {
  const std::span<const dfg::OpId> chain = module_chain(c);
  HLTS_REQUIRE(i + 1 < chain.size(), "module-chain swap out of range");
  relink_module(chain[i].value(), chain[i + 1].value());
  std::swap(module_chain_ops_[module_chain_begin_[c] + i],
            module_chain_ops_[module_chain_begin_[c] + i + 1]);
}

void ConstraintGraph::swap_register(std::size_t c, std::size_t i) {
  const std::span<const dfg::VarId> chain = register_chain(c);
  HLTS_REQUIRE(i + 1 < chain.size(), "register-chain swap out of range");
  relink_register(chain[i].value(), chain[i + 1].value());
  std::swap(register_chain_vars_[register_chain_begin_[c] + i],
            register_chain_vars_[register_chain_begin_[c] + i + 1]);
}

void ConstraintGraph::relink_module(std::uint32_t a, std::uint32_t b) {
  // p -> a -> b -> n  becomes  p -> b -> a -> n.
  const std::uint32_t p = module_prev_[a];
  const std::uint32_t n = module_next_[b];
  if (p != kNone) module_next_[p] = b;
  module_prev_[b] = p;
  module_next_[b] = a;
  module_prev_[a] = b;
  module_next_[a] = n;
  if (n != kNone) module_prev_[n] = a;
}

void ConstraintGraph::relink_register(std::uint32_t x, std::uint32_t y) {
  const std::uint32_t p = register_prev_[x];
  const std::uint32_t n = register_next_[y];
  if (p != kNone) register_next_[p] = y;
  register_prev_[y] = p;
  register_next_[y] = x;
  register_prev_[x] = y;
  register_next_[x] = n;
  if (n != kNone) register_prev_[n] = x;
}

int ConstraintGraph::undefined_pairs(std::size_t c, std::size_t i) const {
  const std::span<const dfg::VarId> chain = register_chain(c);
  int count = 0;
  for (std::size_t later = std::max<std::size_t>(i, 1);
       later <= i + 2 && later < chain.size(); ++later) {
    if (tables().var_def_[chain[later].index()] == kNone) ++count;
  }
  return count;
}

void ConstraintGraph::begin_edit(ArcKind kind, std::size_t c,
                                 std::size_t i) {
  HLTS_REQUIRE(solved_ && linked_,
               "constraint-graph swap needs a solved incumbent");
  HLTS_REQUIRE(pending_ == ArcKind::None,
               "constraint-graph swap while another is pending");
  HLTS_REQUIRE(i + 1 < (kind == ArcKind::Module ? module_chain_size_[c]
                                                : register_chain_size_[c]),
               "constraint-graph swap out of range");
  pending_ = kind;
  pending_chain_ = c;
  pending_pos_ = i;
  pending_applied_ = false;
  pending_undefined_ = undefined_;
  cone_solved_ = false;
  if (!unresolved_.empty() && !cycles_labelled_) label_cycles();
  next_epoch();
  cone_.clear();
}

void ConstraintGraph::seed(std::uint32_t op) {
  if (op == kNone || mark_[op] == epoch_) return;
  mark_[op] = epoch_;
  cone_.push_back(op);
}

void ConstraintGraph::apply_pending() {
  if (pending_ == ArcKind::Module) {
    swap_module(pending_chain_, pending_pos_);
  } else {
    undefined_ -= undefined_pairs(pending_chain_, pending_pos_);
    swap_register(pending_chain_, pending_pos_);
    undefined_ += undefined_pairs(pending_chain_, pending_pos_);
  }
  pending_applied_ = true;
}

std::optional<int> ConstraintGraph::try_swap_module(std::size_t c,
                                                    std::size_t i) {
  begin_edit(ArcKind::Module, c, i);
  // The swap reverses the link into the second member; checked before the
  // edit, a rejected swap costs a lookup.
  if (undefined_ > 0 || contradictions_ > 0 ||
      !may_break_cycles(module_chain(c)[i + 1].value())) {
    return std::nullopt;
  }
  apply_pending();
  // The ops whose incoming chain arcs changed: the swapped pair and the
  // member after it.
  const std::span<const dfg::OpId> chain = module_chain(c);
  for (std::size_t k = i; k <= i + 2 && k < chain.size(); ++k) {
    seed(chain[k].value());
  }
  close_cone();
  return solve_cone();
}

std::optional<int> ConstraintGraph::try_swap_register(std::size_t c,
                                                      std::size_t i) {
  begin_edit(ArcKind::Register, c, i);
  const std::span<const dfg::VarId> chain = register_chain(c);
  const std::vector<std::uint32_t>& var_def = tables().var_def_;
  // Only a swap at the head changes which members count as later ones.
  auto undefined = [&](dfg::VarId v) {
    return var_def[v.index()] == kNone ? 1 : 0;
  };
  const int undefined_after =
      undefined_ + (i == 0 ? undefined(chain[0]) - undefined(chain[1]) : 0);
  if (undefined_after > 0 || contradictions_ > 0 ||
      !may_break_cycles(var_def[chain[i + 1].index()])) {
    return std::nullopt;
  }
  apply_pending();
  // The definitions whose incoming last-read arcs changed: those of the
  // swapped pair and of the member after it.
  for (std::size_t k = i; k <= i + 2 && k < chain.size(); ++k) {
    seed(var_def[chain[k].index()]);
  }
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
         witness_in(reversed) == pending_;
}

std::uint32_t ConstraintGraph::cyclic_components() {
  HLTS_REQUIRE(solved_, "constraint graph has no solution yet");
  if (unresolved_.empty()) return 0;
  if (!cycles_labelled_) label_cycles();
  return num_cycles_;
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
    for_each_succ(unresolved_[k], [&](std::uint32_t x, int, ArcKind) {
      if (mark_[x] == epoch_) sub_adj_.push_back(local_[x]);
    });
  }
  sub_begin_[m] = static_cast<std::uint32_t>(sub_adj_.size());

  if (++label_epoch_ == 0) {  // wrapped: stale labels could collide
    std::fill(label_mark_.begin(), label_mark_.end(), 0);
    label_epoch_ = 1;
  }
  num_cycles_ = 0;
  cycle_root_.clear();
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
        if (cyclic) {
          const std::uint32_t op = unresolved_[w];
          label_mark_[op] = label_epoch_;
          cycle_of_[op] = num_cycles_;
          witness_in_[op] = ArcKind::None;
        }
      } while (w != v);
      if (cyclic) {
        cycle_root_.push_back(unresolved_[v]);
        ++num_cycles_;
      }
    }
  }

  // Only a lone cyclic component's witness can decide anything (see
  // may_break_cycles).
  witness_.clear();
  if (num_cycles_ == 1) {
    walk_component(0, witness_);
    for (std::size_t k = 0; k < witness_.size(); ++k) {
      witness_in_[witness_[(k + 1) % witness_.size()].op] = witness_[k].kind;
    }
  }
  cycles_labelled_ = true;
}

void ConstraintGraph::walk_component(std::uint32_t c,
                                     std::vector<CycleArc>& out) {
  // Every member of the cyclic component has a successor inside it; fixed
  // arcs are preferred because no swap removes them.
  const ConstraintTables& t = tables();
  auto step = [&](std::uint32_t u) -> std::pair<std::uint32_t, ArcKind> {
    for (std::uint32_t k = t.succ_begin_[u]; k < t.succ_begin_[u + 1]; ++k) {
      if (cycle_of(t.succ_[k].to) == c) return {t.succ_[k].to, ArcKind::Fixed};
    }
    if (module_next_[u] != kNone && cycle_of(module_next_[u]) == c) {
      return {module_next_[u], ArcKind::Module};
    }
    for (std::uint32_t k = t.released_begin_[u]; k < t.released_begin_[u + 1];
         ++k) {
      const std::uint32_t after = register_next_[t.released_vars_[k]];
      if (after == kNone || t.var_def_[after] == kNone) continue;
      if (cycle_of(t.var_def_[after]) == c) {
        return {t.var_def_[after], ArcKind::Register};
      }
    }
    HLTS_REQUIRE(false, "cyclic component member without a successor in it");
    return {kNone, ArcKind::None};
  };
  walk_.clear();
  std::uint32_t u = cycle_root_[c];
  while (!walked(u)) {
    local_[u] = static_cast<std::uint32_t>(walk_.size());
    const auto [next, kind] = step(u);
    walk_.push_back({u, kind});
    u = next;
  }
  // u closed the cycle: the walk from u's first visit on.
  out.clear();
  for (std::size_t i = local_[u]; i < walk_.size(); ++i) {
    out.push_back({walk_[i].first, walk_[i].second});
  }
}

void ConstraintGraph::component_cycle(std::uint32_t c,
                                      std::vector<CycleArc>& out) {
  HLTS_REQUIRE(c < cyclic_components(), "no such cyclic component");
  walk_component(c, out);
}

bool ConstraintGraph::swap_cycle(std::vector<CycleArc>& out) {
  HLTS_REQUIRE(pending_ != ArcKind::None, "no constraint-graph swap pending");
  if (!pending_applied_ || !cone_solved_) return false;
  // Kahn's leftovers: a cone op it could not order still waits for a cone
  // predecessor it could not order, so walking back over them closes a
  // cycle.
  auto leftover = [&](std::uint32_t v) {
    return mark_[v] == epoch_ && indegree_[v] > 0;
  };
  const auto start = std::find_if(cone_.begin(), cone_.end(), leftover);
  if (start == cone_.end()) return false;
  // Each entry after the first: an op with the kind of its arc into the
  // entry before it.
  walk_.clear();
  std::uint32_t v = *start;
  local_[v] = 0;
  walk_.push_back({v, ArcKind::None});
  for (;;) {
    std::uint32_t from = kNone;
    ArcKind kind = ArcKind::None;
    for_each_pred(v, [&](std::uint32_t u, int, ArcKind k) {
      if (from == kNone && leftover(u)) {
        from = u;
        kind = k;
      }
    });
    if (walked(from)) {
      // from -> v closes the cycle from, walk_.back() .. walk_[from + 1].
      out.clear();
      out.push_back({from, kind});
      for (std::size_t i = walk_.size() - 1; i > local_[from]; --i) {
        out.push_back({walk_[i].first, walk_[i].second});
      }
      return true;
    }
    local_[from] = static_cast<std::uint32_t>(walk_.size());
    walk_.push_back({from, kind});
    v = from;
  }
}

bool ConstraintGraph::has_arc(std::uint32_t u, ArcKind kind,
                              std::uint32_t v) const {
  const ConstraintTables& t = tables();
  switch (kind) {
    case ArcKind::Fixed:
      for (std::uint32_t k = t.succ_begin_[u]; k < t.succ_begin_[u + 1]; ++k) {
        if (t.succ_[k].to == v) return true;
      }
      return false;
    case ArcKind::Module:
      return module_next_[u] == v;
    case ArcKind::Register: {
      // v writes its output after the last reads of the variable before it
      // in that variable's register; u must be one of those reads.
      const std::uint32_t y = t.op_output_[v];
      const std::uint32_t x = y == kNone ? kNone : register_prev_[y];
      if (x == kNone) return false;
      for (std::uint32_t k = t.release_begin_[x]; k < t.release_begin_[x + 1];
           ++k) {
        if (t.release_ops_[k] == u) return true;
      }
      return false;
    }
    case ArcKind::None:
      break;
  }
  return false;
}

bool ConstraintGraph::has_cycle(std::span<const CycleArc> cycle) const {
  HLTS_REQUIRE(linked_, "constraint graph is not linked");
  for (std::size_t k = 0; k < cycle.size(); ++k) {
    const std::uint32_t next = cycle[k + 1 < cycle.size() ? k + 1 : 0].op;
    if (!has_arc(cycle[k].op, cycle[k].kind, next)) return false;
  }
  return !cycle.empty();
}

bool ConstraintGraph::has_cycle_after_swap(std::span<const CycleArc> on,
                                           std::size_t j,
                                           std::span<const CycleArc> cycle) {
  HLTS_REQUIRE(pending_ == ArcKind::None && j < on.size(),
               "cycle check with a swap pending");
  const std::uint32_t tail = on[j].op;
  const std::uint32_t head = on[j + 1 < on.size() ? j + 1 : 0].op;
  const ArcKind kind = on[j].kind;
  HLTS_REQUIRE((kind == ArcKind::Module || kind == ArcKind::Register) &&
                   has_arc(tail, kind, head),
               "swapped arc is not a chain link of the graph");
  if (kind == ArcKind::Module) {
    relink_module(tail, head);
    const bool found = has_cycle(cycle);
    relink_module(head, tail);
    return found;
  }
  const auto [x, y] = register_link_into(head);
  relink_register(x.value(), y.value());
  const bool found = has_cycle(cycle);
  relink_register(y.value(), x.value());
  return found;
}

std::pair<dfg::VarId, dfg::VarId> ConstraintGraph::register_link_into(
    std::uint32_t head) const {
  const std::uint32_t y = tables().op_output_[head];
  const std::uint32_t x = y == kNone ? kNone : register_prev_[y];
  HLTS_REQUIRE(x != kNone, "no register-chain link into the operation");
  return {dfg::VarId{x}, dfg::VarId{y}};
}

void ConstraintGraph::keep() {
  HLTS_REQUIRE(pending_ != ArcKind::None, "no constraint-graph swap pending");
  if (!pending_applied_) apply_pending();
  if (has_base_) {
    kept_.push_back({pending_, static_cast<std::uint32_t>(pending_chain_),
                     static_cast<std::uint32_t>(pending_pos_)});
  }
  pending_ = ArcKind::None;
  if (cone_solved_) {
    commit_cone();
  } else {
    (void)solve_all();  // a cycle outside the cone: re-derive from scratch
  }
}

void ConstraintGraph::revert() {
  HLTS_REQUIRE(pending_ != ArcKind::None, "no constraint-graph swap pending");
  if (pending_applied_) {
    if (pending_ == ArcKind::Module) {
      swap_module(pending_chain_, pending_pos_);
    } else {
      swap_register(pending_chain_, pending_pos_);
    }
  }
  undefined_ = pending_undefined_;
  pending_ = ArcKind::None;
}

void ConstraintGraph::save_base() {
  HLTS_REQUIRE(solved_ && linked_ && pending_ == ArcKind::None &&
                   merged_ == ArcKind::None,
               "constraint-graph base needs a solved, unedited graph");
  has_base_ = true;
  incumbent_is_base_ = true;
  kept_.clear();
  base_module_ops_ = module_chain_ops_.size();
  base_register_vars_ = register_chain_vars_.size();
  base_undefined_ = undefined_;
  base_contradictions_ = contradictions_;
  base_top_ = top_;
  base_step_ = step_;
  base_resolved_ = resolved_;
  base_step_count_ = step_count_;
  base_unresolved_ = unresolved_;
}

template <typename T>
std::span<T> ConstraintGraph::append_chain(ArcKind kind, std::vector<T>& items,
                                          std::vector<std::uint32_t>& begins,
                                          std::vector<std::uint32_t>& sizes,
                                          std::size_t into, std::size_t from) {
  HLTS_REQUIRE(has_base_ && merged_ == ArcKind::None && kept_.empty() &&
                   pending_ == ArcKind::None,
               "chain merge needs an unedited base");
  HLTS_REQUIRE(into != from && into < begins.size() && from < begins.size(),
               "chain merge out of range");
  into_begin_ = begins[into];
  into_size_ = sizes[into];
  from_size_ = sizes[from];
  const auto tail = static_cast<std::uint32_t>(items.size());
  items.resize(tail + into_size_ + from_size_);  // may throw: nothing changed
  std::copy_n(items.begin() + into_begin_, into_size_, items.begin() + tail);
  std::copy_n(items.begin() + begins[from], from_size_,
              items.begin() + tail + into_size_);
  merged_ = kind;
  merged_into_ = static_cast<std::uint32_t>(into);
  merged_from_ = static_cast<std::uint32_t>(from);
  begins[into] = tail;
  sizes[into] = into_size_ + from_size_;
  sizes[from] = 0;
  return {items.data() + tail, into_size_ + from_size_};
}

std::span<dfg::OpId> ConstraintGraph::merge_module_chains(std::size_t into,
                                                          std::size_t from) {
  return append_chain(ArcKind::Module, module_chain_ops_, module_chain_begin_,
                      module_chain_size_, into, from);
}

std::span<dfg::VarId> ConstraintGraph::merge_register_chains(
    std::size_t into, std::size_t from) {
  const std::span<dfg::VarId> merged =
      append_chain(ArcKind::Register, register_chain_vars_,
                   register_chain_begin_, register_chain_size_, into, from);
  into_contradicted_ = register_chain_contradicted_[into];
  from_contradicted_ = register_chain_contradicted_[from];
  register_chain_contradicted_[into] = contradictory(merged) ? 1 : 0;
  register_chain_contradicted_[from] = 0;
  contradictions_ += register_chain_contradicted_[into] - into_contradicted_ -
                     from_contradicted_;
  return merged;
}

void ConstraintGraph::link_merge() {
  HLTS_REQUIRE(merged_ != ArcKind::None && !merge_linked_ &&
                   pending_ == ArcKind::None && kept_.empty(),
               "link_merge needs a fresh chain merge");
  next_epoch();
  cone_.clear();
  if (merged_ == ArcKind::Module) {
    link_module_chain(module_chain(merged_into_), true);
  } else {
    const std::span<const dfg::VarId> merged = register_chain(merged_into_);
    // The two base chains are still in place in storage.
    const std::span<const dfg::VarId> into{
        register_chain_vars_.data() + into_begin_, into_size_};
    const std::span<const dfg::VarId> from{
        register_chain_vars_.data() + register_chain_begin_[merged_from_],
        from_size_};
    undefined_ += undefined_members(merged) - undefined_members(into) -
                  undefined_members(from);
    link_register_chain(merged, true);
  }
  merge_linked_ = true;
  solved_ = false;
  cycles_labelled_ = false;
}

std::optional<int> ConstraintGraph::solve_merge() {
  if (!merge_linked_) link_merge();
  HLTS_REQUIRE(!solved_ && pending_ == ArcKind::None,
               "solve_merge needs a fresh chain merge");
  solved_ = true;
  // A base cycle outside the cone would block it: solve everything.
  if (!unresolved_.empty()) return solve_all();
  close_cone();
  const std::optional<int> length = solve_cone();
  commit_cone();
  return length;
}

void ConstraintGraph::restore_base() {
  HLTS_REQUIRE(has_base_, "constraint graph has no base");
  if (pending_ != ArcKind::None) revert();
  for (auto it = kept_.rbegin(); it != kept_.rend(); ++it) {
    if (it->kind == ArcKind::Module) {
      swap_module(it->chain, it->pos);
    } else {
      swap_register(it->chain, it->pos);
    }
  }
  kept_.clear();
  // The two chains' base members are still in place in storage.
  if (merged_ == ArcKind::Module) {
    module_chain_begin_[merged_into_] = into_begin_;
    module_chain_size_[merged_into_] = into_size_;
    module_chain_size_[merged_from_] = from_size_;
    module_chain_ops_.resize(base_module_ops_);
    link_module_chain(module_chain(merged_into_), false);
    link_module_chain(module_chain(merged_from_), false);
  } else if (merged_ == ArcKind::Register) {
    register_chain_begin_[merged_into_] = into_begin_;
    register_chain_size_[merged_into_] = into_size_;
    register_chain_size_[merged_from_] = from_size_;
    register_chain_contradicted_[merged_into_] = into_contradicted_;
    register_chain_contradicted_[merged_from_] = from_contradicted_;
    register_chain_vars_.resize(base_register_vars_);
    link_register_chain(register_chain(merged_into_), false);
    link_register_chain(register_chain(merged_from_), false);
  }
  merged_ = ArcKind::None;
  merge_linked_ = false;
  undefined_ = base_undefined_;
  contradictions_ = base_contradictions_;
  // A merge that was only linked left the base's incumbent in place.
  if (!incumbent_is_base_) {
    top_ = base_top_;
    step_ = base_step_;
    resolved_ = base_resolved_;
    step_count_ = base_step_count_;
    unresolved_ = base_unresolved_;
    incumbent_is_base_ = true;
  }
  cycles_labelled_ = false;
  solved_ = true;
}

}  // namespace hlts::sched
