#include "support/reference_cdcl.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hlts::test_support {

namespace {

// VSIDS decay per conflict (activity_inc_ grows by 1/kVarDecay) and the
// rescale threshold that keeps activities finite.
constexpr double kVarDecay = 0.95;
constexpr double kActivityRescale = 1e100;

// Conflicts in the first Luby restart slice; slice i allows
// luby(i) * kRestartBase conflicts before restarting.
constexpr std::uint64_t kRestartBase = 100;

}  // namespace

ReferenceSolver::ReferenceSolver() = default;

Var ReferenceSolver::new_var() {
  HLTS_REQUIRE(trail_lim_.empty(), "cdcl: new_var only at decision level 0");
  const Var v = num_vars();
  assign_.push_back(Value::Undef);
  phase_.push_back(0);
  level_.push_back(0);
  reason_.push_back(kNoClause);
  activity_.push_back(0.0);
  seen_.push_back(0);
  // restore_baseline() keeps the watch lists of dropped variables (empty,
  // with their capacity), so a re-created variable reuses them.
  if (watches_.size() < 2 * assign_.size()) watches_.resize(2 * assign_.size());
  heap_pos_.push_back(-1);
  model_.push_back(Value::False);
  heap_insert(v);
  return v;
}

Value ReferenceSolver::lit_value(Lit l) const {
  const Value v = assign_[static_cast<std::size_t>(l.var())];
  if (v == Value::Undef) return Value::Undef;
  const bool b = (v == Value::True) != l.sign();
  return b ? Value::True : Value::False;
}

Value ReferenceSolver::value(Var v) const {
  HLTS_REQUIRE(v >= 0 && v < num_vars(), "cdcl: value() var out of range");
  return model_[static_cast<std::size_t>(v)];
}

ReferenceSolver::ClauseRef ReferenceSolver::alloc_clause(
    std::span<const Lit> lits, bool learnt) {
  const auto ref = static_cast<ClauseRef>(arena_.size());
  arena_.push_back(static_cast<int>(lits.size()));
  arena_.push_back(learnt ? 1 : 0);
  for (const Lit l : lits) arena_.push_back(l.x);
  return ref;
}

void ReferenceSolver::watch_clause(ClauseRef c) {
  // A clause watches its first two literals: it is registered under the
  // *negations*, so enqueueing p true visits exactly the clauses in which
  // p's negation is watched (i.e. just became false).
  const Lit l0 = clause_lit(c, 0);
  const Lit l1 = clause_lit(c, 1);
  watches_[static_cast<std::size_t>((~l0).x)].push_back(c);
  watches_[static_cast<std::size_t>((~l1).x)].push_back(c);
}

bool ReferenceSolver::add_clause(std::span<const Lit> lits) {
  HLTS_REQUIRE(trail_lim_.empty(), "cdcl: add_clause only at decision level 0");
  if (!ok_) return false;

  // Normalize in the member buffer: sort by code, merge duplicates, drop
  // tautologies and literals already false at the root level; a literal
  // true at the root satisfies the clause outright.
  std::vector<Lit>& out = add_scratch_;
  out.assign(lits.begin(), lits.end());
  std::sort(out.begin(), out.end(),
            [](Lit a, Lit b) { return a.x < b.x; });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Lit l = out[i];
    HLTS_REQUIRE(l.var() >= 0 && l.var() < num_vars(),
                 "cdcl: clause literal over unknown variable");
    if (kept > 0 && out[kept - 1] == l) continue;      // duplicate
    if (kept > 0 && out[kept - 1] == ~l) return true;  // tautology
    const Value v = lit_value(l);
    if (v == Value::True) return true;   // satisfied at root
    if (v == Value::False) continue;     // falsified at root: drop literal
    out[kept++] = l;
  }
  out.resize(kept);

  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    enqueue(out[0], kNoClause);
    if (propagate() != kNoClause) ok_ = false;
    return ok_;
  }
  const ClauseRef ref = alloc_clause(out, /*learnt=*/false);
  clauses_.push_back(ref);
  ++num_problem_clauses_;
  watch_clause(ref);
  return true;
}

void ReferenceSolver::enqueue(Lit l, ClauseRef reason) {
  const auto v = static_cast<std::size_t>(l.var());
  HLTS_REQUIRE(assign_[v] == Value::Undef, "cdcl: enqueue on assigned var");
  assign_[v] = l.sign() ? Value::False : Value::True;
  phase_[v] = static_cast<std::uint8_t>(l.sign() ? 0 : 1);
  level_[v] = static_cast<int>(trail_lim_.size());
  reason_[v] = reason;
  trail_.push_back(l);
}

ReferenceSolver::ClauseRef ReferenceSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    std::vector<ClauseRef>& ws = watches_[static_cast<std::size_t>(p.x)];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const ClauseRef c = ws[i];
      int* codes = clause_codes(c);
      const int size = clause_size(c);
      // Normalize so the falsified watcher (~p) sits in slot 1.
      const Lit not_p = ~p;
      if (codes[0] == not_p.x) std::swap(codes[0], codes[1]);
      Lit first;
      first.x = codes[0];
      if (lit_value(first) == Value::True) {
        ws[keep++] = c;  // satisfied; keep the watch as-is
        continue;
      }
      // Look for a non-false literal to take over the watch.
      bool moved = false;
      for (int k = 2; k < size; ++k) {
        Lit cand;
        cand.x = codes[k];
        if (lit_value(cand) != Value::False) {
          std::swap(codes[1], codes[k]);
          watches_[static_cast<std::size_t>((~cand).x)].push_back(c);
          moved = true;
          break;
        }
      }
      if (moved) continue;  // watch migrated; drop from this list
      // No replacement: clause is unit (propagate first) or conflicting.
      ws[keep++] = c;
      if (lit_value(first) == Value::False) {
        // Conflict: keep the remaining watchers, restore queue consistency.
        for (std::size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
        ws.resize(keep);
        qhead_ = trail_.size();
        return c;
      }
      enqueue(first, c);
    }
    ws.resize(keep);
  }
  return kNoClause;
}

void ReferenceSolver::var_bump(Var v) {
  const auto i = static_cast<std::size_t>(v);
  activity_[i] += activity_inc_;
  if (activity_[i] > kActivityRescale) {
    ++rescales_;
    for (double& a : activity_) {
      const bool positive = a > 0.0;
      a *= 1.0 / kActivityRescale;
      if (positive && a == 0.0) ++underflows_;
    }
    activity_inc_ *= 1.0 / kActivityRescale;
    if (!unordered_) unordered_ = !heap_ordered();
  }
  if (heap_pos_[i] >= 0) heap_sift_up(heap_pos_[i]);
}

void ReferenceSolver::var_decay() { activity_inc_ *= 1.0 / kVarDecay; }

namespace {
// Bitmask abstraction of a decision level, used by clause minimization to
// prune the redundancy search cheaply.
[[nodiscard]] std::uint32_t abstract_level(int level) {
  return 1u << (static_cast<unsigned>(level) & 31u);
}
}  // namespace

bool ReferenceSolver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  // A literal is redundant in the learnt clause when every path from it back
  // through reasons bottoms out in literals already in the clause (seen) or
  // at the root level.  Iterative DFS with rollback on failure.
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t undo_from = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const auto qv = static_cast<std::size_t>(q.var());
    const ClauseRef reason = reason_[qv];
    HLTS_REQUIRE(reason != kNoClause, "cdcl: redundancy walk hit a decision");
    const int size = clause_size(reason);
    for (int k = 1; k < size; ++k) {
      const Lit r = clause_lit(reason, k);
      const auto rv = static_cast<std::size_t>(r.var());
      if (seen_[rv] != 0 || level_[rv] == 0) continue;
      if (reason_[rv] == kNoClause ||
          (abstract_level(level_[rv]) & abstract_levels) == 0) {
        // Decision var, or a level no clause literal lives on: not redundant.
        for (std::size_t j = undo_from; j < analyze_clear_.size(); ++j) {
          seen_[static_cast<std::size_t>(analyze_clear_[j].var())] = 0;
        }
        analyze_clear_.resize(undo_from);
        return false;
      }
      seen_[rv] = 1;
      analyze_clear_.push_back(r);
      analyze_stack_.push_back(r);
    }
  }
  return true;
}

void ReferenceSolver::analyze(ClauseRef conflict, std::vector<Lit>& learnt,
                     int& bt_level) {
  // First-UIP scheme: walk the trail backwards from the conflict, resolving
  // on current-level literals until exactly one (the UIP) remains; literals
  // from lower levels become the learnt clause body.
  learnt.clear();
  learnt.push_back(Lit());  // slot 0: the asserting literal, filled below
  const int current_level = static_cast<int>(trail_lim_.size());
  int path_count = 0;
  Lit p;  // undefined marker on the first iteration
  auto index = static_cast<std::ptrdiff_t>(trail_.size()) - 1;
  ClauseRef reason = conflict;

  for (;;) {
    HLTS_REQUIRE(reason != kNoClause, "cdcl: analyze missing reason");
    const int size = clause_size(reason);
    for (int k = (p.x == -2 ? 0 : 1); k < size; ++k) {
      const Lit q = clause_lit(reason, k);
      const auto qv = static_cast<std::size_t>(q.var());
      if (seen_[qv] != 0 || level_[qv] == 0) continue;
      seen_[qv] = 1;
      analyze_clear_.push_back(q);
      var_bump(q.var());
      if (level_[qv] >= current_level) {
        ++path_count;
      } else {
        learnt.push_back(q);
      }
    }
    // Next current-level literal to resolve on.
    while (seen_[static_cast<std::size_t>(trail_[static_cast<std::size_t>(
               index)].var())] == 0) {
      --index;
    }
    p = trail_[static_cast<std::size_t>(index)];
    --index;
    seen_[static_cast<std::size_t>(p.var())] = 0;
    --path_count;
    if (path_count <= 0) break;
    reason = reason_[static_cast<std::size_t>(p.var())];
  }
  learnt[0] = ~p;

  // Recursive minimization: drop body literals implied by the rest.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    abstract_levels |=
        abstract_level(level_[static_cast<std::size_t>(learnt[i].var())]);
  }
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const auto v = static_cast<std::size_t>(learnt[i].var());
    if (reason_[v] == kNoClause || !lit_redundant(learnt[i], abstract_levels)) {
      learnt[kept++] = learnt[i];
    } else {
      ++stats_.minimized_literals;
    }
  }
  learnt.resize(kept);

  // Backtrack to the second-highest level and put its literal in slot 1 so
  // the learnt clause is watched correctly and asserts on arrival.
  if (learnt.size() == 1) {
    bt_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[static_cast<std::size_t>(learnt[i].var())] >
          level_[static_cast<std::size_t>(learnt[max_i].var())]) {
        max_i = i;
      }
    }
    std::swap(learnt[1], learnt[max_i]);
    bt_level = level_[static_cast<std::size_t>(learnt[1].var())];
  }

  for (const Lit q : analyze_clear_) {
    seen_[static_cast<std::size_t>(q.var())] = 0;
  }
  analyze_clear_.clear();
}

void ReferenceSolver::analyze_final(Lit failed) {
  // The failed assumption's negation is implied by root clauses plus some
  // subset of the other assumptions; walk reasons back to decisions (which
  // are all assumptions at this point in the decision loop) to collect it.
  // seen_ marks a var to visit with 1 and a decision in the core with 2.
  conflict_core_.clear();
  const auto fv = static_cast<std::size_t>(failed.var());
  seen_[fv] = 1;
  if (!trail_lim_.empty()) {
    for (auto i = static_cast<std::ptrdiff_t>(trail_.size()) - 1;
         i >= static_cast<std::ptrdiff_t>(trail_lim_[0]); --i) {
      const Lit t = trail_[static_cast<std::size_t>(i)];
      const auto v = static_cast<std::size_t>(t.var());
      if (seen_[v] == 0) continue;
      if (reason_[v] == kNoClause) {
        seen_[v] = 2;  // a decision == an assumption
        continue;
      }
      const ClauseRef c = reason_[v];
      const int size = clause_size(c);
      for (int k = 1; k < size; ++k) {
        const Lit q = clause_lit(c, k);
        const auto qv = static_cast<std::size_t>(q.var());
        if (level_[qv] > 0) seen_[qv] = 1;
      }
      seen_[v] = 0;
    }
  }
  for (const Lit a : assumptions_) {
    const auto v = static_cast<std::size_t>(a.var());
    if (v == fv || seen_[v] == 2) conflict_core_.push_back(a);
  }
  for (const Lit a : assumptions_) seen_[static_cast<std::size_t>(a.var())] = 0;
  seen_[fv] = 0;
}

void ReferenceSolver::backtrack(int target) {
  if (static_cast<int>(trail_lim_.size()) <= target) return;
  const auto bound = static_cast<std::size_t>(trail_lim_[
      static_cast<std::size_t>(target)]);
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const auto v = static_cast<std::size_t>(trail_[i].var());
    assign_[v] = Value::Undef;
    reason_[v] = kNoClause;
    if (heap_pos_[v] < 0) heap_insert(static_cast<Var>(v));
  }
  trail_.resize(bound);
  trail_lim_.resize(static_cast<std::size_t>(target));
  qhead_ = trail_.size();
}

Lit ReferenceSolver::pick_branch() {
  // Observer: once a rescale left the heap out of order, compare every
  // decision with the documented first unassigned variable.
  Var first = -1;
  if (unordered_) {
    for (const int u : heap_) {
      if (assign_[static_cast<std::size_t>(u)] == Value::Undef &&
          (first < 0 || heap_less(u, first))) {
        first = u;
      }
    }
  }
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (assign_[static_cast<std::size_t>(v)] == Value::Undef) {
      if (v != first && first >= 0) ++out_of_order_picks_;
      return Lit(v, phase_[static_cast<std::size_t>(v)] == 0);
    }
  }
  return Lit();  // all assigned
}

bool ReferenceSolver::heap_ordered() const {
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    if (heap_less(heap_[i], heap_[(i - 1) / 2])) return false;
  }
  return true;
}

Status ReferenceSolver::solve(const std::vector<Lit>& assumptions,
                     std::int64_t conflict_budget) {
  conflict_core_.clear();
  if (!ok_) return Status::Unsat;  // root-level inconsistency, empty core
  assumptions_ = assumptions;

  backtrack(0);
  std::uint64_t conflicts_this_call = 0;
  std::uint64_t restart_index = 1;
  std::uint64_t restart_limit = luby(restart_index) * kRestartBase;
  std::uint64_t conflicts_since_restart = 0;
  std::vector<Lit> learnt;

  const auto finish = [this](Status s) {
    backtrack(0);
    return s;
  };

  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoClause) {
      ++stats_.conflicts;
      ++conflicts_this_call;
      ++conflicts_since_restart;
      if (trail_lim_.empty()) {
        ok_ = false;  // conflict with no decisions: formula itself is Unsat
        return finish(Status::Unsat);
      }
      int bt_level = 0;
      analyze(conflict, learnt, bt_level);
      backtrack(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoClause);
      } else {
        const ClauseRef ref = alloc_clause(learnt, /*learnt=*/true);
        learnts_.push_back(ref);
        watch_clause(ref);
        enqueue(learnt[0], ref);
      }
      ++stats_.learned;
      stats_.learned_literals += learnt.size();
      var_decay();
      continue;
    }

    if (conflict_budget > 0 &&
        conflicts_this_call >= static_cast<std::uint64_t>(conflict_budget)) {
      return finish(Status::Unknown);
    }
    if (conflicts_since_restart >= restart_limit) {
      ++stats_.restarts;
      ++restart_index;
      restart_limit = luby(restart_index) * kRestartBase;
      conflicts_since_restart = 0;
      backtrack(0);
      continue;
    }

    // Place pending assumptions as decisions before any free decision.
    Lit next;
    while (trail_lim_.size() < assumptions_.size()) {
      const Lit a = assumptions_[trail_lim_.size()];
      const Value v = lit_value(a);
      if (v == Value::True) {
        // Already implied: open an empty decision level for it.
        trail_lim_.push_back(static_cast<int>(trail_.size()));
      } else if (v == Value::False) {
        analyze_final(a);
        return finish(Status::Unsat);
      } else {
        next = a;
        break;
      }
    }
    if (next.x == -2) {
      next = pick_branch();
      if (next.x == -2) {
        // Complete assignment: snapshot the model before unwinding.
        for (std::size_t v = 0; v < assign_.size(); ++v) {
          model_[v] = assign_[v] == Value::Undef ? Value::False : assign_[v];
        }
        return finish(Status::Sat);
      }
      ++stats_.decisions;
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(next, kNoClause);
  }
}

// ---- baseline --------------------------------------------------------------

void ReferenceSolver::rewatch_problem_clauses() {
  // Every clause is watched on its first two literals, so re-registering
  // the problem clauses in insertion order rebuilds the same watch sets in
  // a canonical list order.
  for (std::vector<ClauseRef>& ws : watches_) ws.clear();
  for (const ClauseRef c : clauses_) watch_clause(c);
}

void ReferenceSolver::mark_baseline() {
  HLTS_REQUIRE(trail_lim_.empty() && learnts_.empty(),
               "cdcl: baseline only at level 0 before any learnt clause");
  rewatch_problem_clauses();
  baseline_.set = true;
  baseline_.ok = ok_;
  baseline_.vars = num_vars();
  baseline_.clauses = clauses_.size();
  baseline_.trail = trail_.size();
  baseline_.activity_inc = activity_inc_;
  baseline_.arena = arena_;
  baseline_.activity = activity_;
  baseline_.phase = phase_;
  baseline_.heap = heap_;
}

void ReferenceSolver::restore_baseline() {
  HLTS_REQUIRE(baseline_.set, "cdcl: restore_baseline without a baseline");
  backtrack(0);
  const Baseline& b = baseline_;
  for (std::size_t i = trail_.size(); i-- > b.trail;) {
    const auto v = static_cast<std::size_t>(trail_[i].var());
    assign_[v] = Value::Undef;
    reason_[v] = kNoClause;
  }
  trail_.resize(b.trail);
  qhead_ = b.trail;

  const auto n = static_cast<std::size_t>(b.vars);
  assign_.resize(n);
  level_.resize(n);
  reason_.resize(n);
  seen_.resize(n);
  model_.resize(n);
  phase_ = b.phase;
  activity_ = b.activity;
  activity_inc_ = b.activity_inc;
  heap_ = b.heap;
  heap_pos_.assign(n, -1);
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
  }

  arena_ = b.arena;  // the baseline clauses in their baseline literal order
  clauses_.resize(b.clauses);
  num_problem_clauses_ = b.clauses;
  learnts_.clear();
  rewatch_problem_clauses();
  ok_ = b.ok;
  assumptions_.clear();
  conflict_core_.clear();
}

// ---- activity heap (max-heap; ties break toward the smaller index) ------

bool ReferenceSolver::heap_less(Var a, Var b) const {
  const double aa = activity_[static_cast<std::size_t>(a)];
  const double ab = activity_[static_cast<std::size_t>(b)];
  if (aa != ab) return aa > ab;
  return a < b;
}

void ReferenceSolver::heap_insert(Var v) {
  HLTS_REQUIRE(heap_pos_[static_cast<std::size_t>(v)] < 0,
               "cdcl: heap double insert");
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(static_cast<int>(heap_.size()) - 1);
}

void ReferenceSolver::heap_update(Var v) {
  const int i = heap_pos_[static_cast<std::size_t>(v)];
  if (i < 0) return;
  heap_sift_up(i);
  heap_sift_down(heap_pos_[static_cast<std::size_t>(v)]);
}

Var ReferenceSolver::heap_pop() {
  HLTS_REQUIRE(!heap_.empty(), "cdcl: pop from empty heap");
  const Var top = heap_[0];
  heap_pos_[static_cast<std::size_t>(top)] = -1;
  const Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[static_cast<std::size_t>(last)] = 0;
    heap_sift_down(0);
  }
  return top;
}

void ReferenceSolver::heap_sift_up(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    const Var pv = heap_[static_cast<std::size_t>(parent)];
    if (!heap_less(v, pv)) break;
    heap_[static_cast<std::size_t>(i)] = pv;
    heap_pos_[static_cast<std::size_t>(pv)] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[static_cast<std::size_t>(v)] = i;
}

void ReferenceSolver::heap_sift_down(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        heap_less(heap_[static_cast<std::size_t>(child + 1)],
                  heap_[static_cast<std::size_t>(child)])) {
      ++child;
    }
    const Var cv = heap_[static_cast<std::size_t>(child)];
    if (!heap_less(cv, v)) break;
    heap_[static_cast<std::size_t>(i)] = cv;
    heap_pos_[static_cast<std::size_t>(cv)] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[static_cast<std::size_t>(v)] = i;
}

std::uint64_t ReferenceSolver::luby(std::uint64_t i) {
  // Luby sequence 1,1,2,1,1,2,4,... (1-indexed): if i is 2^k - 1 the value
  // is 2^(k-1); otherwise recurse into the subsequence i falls in.
  for (;;) {
    std::uint64_t k = 1;
    while (((std::uint64_t{1} << k) - 1) < i) ++k;
    if (i == (std::uint64_t{1} << k) - 1) return std::uint64_t{1} << (k - 1);
    i -= (std::uint64_t{1} << (k - 1)) - 1;
  }
}

}  // namespace hlts::test_support
