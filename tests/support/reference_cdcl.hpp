// Frozen reference copy of the CDCL solver (util/cdcl.hpp).
//
// This is the solver as it was before its decision queue was split in two
// tiers: every queued variable lives in one activity max-heap (ties toward
// the smaller index), and a literal's value is computed from its
// variable's assignment.  Production util::cdcl::Solver must match it bit
// for bit -- status, model, failed assumptions and every Stats field --
// and the CdclDifferential tests compare against this copy, never against
// the code under test.  Beyond the frozen solver it only observes: it
// counts its activity rescales, the activities a rescale underflowed to
// 0.0, and the decisions its heap made out of its own documented order
// (which an underflow can cause, see out_of_order_picks()).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/cdcl.hpp"

namespace hlts::test_support {

using util::cdcl::Lit;
using util::cdcl::Stats;
using util::cdcl::Status;
using util::cdcl::Value;
using util::cdcl::Var;

class ReferenceSolver {
 public:
  ReferenceSolver();

  /// Allocates a fresh variable and returns it.
  Var new_var();
  [[nodiscard]] int num_vars() const { return static_cast<int>(assign_.size()); }

  /// Adds a clause over existing variables.  Tautologies are dropped and
  /// duplicate literals merged.  Adding the empty clause (or a unit that
  /// contradicts a previous unit) makes the solver permanently Unsat.
  /// Returns false when the solver is already known Unsat.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(Lit a) { return add_clause(std::span<const Lit>(&a, 1)); }
  bool add_clause(Lit a, Lit b) {
    const Lit lits[] = {a, b};
    return add_clause(lits);
  }
  bool add_clause(Lit a, Lit b, Lit c) {
    const Lit lits[] = {a, b, c};
    return add_clause(lits);
  }

  /// Solves under `assumptions` (each forced true for this call only).
  /// `conflict_budget` bounds the search; <= 0 means unbounded.
  Status solve(const std::vector<Lit>& assumptions = {},
               std::int64_t conflict_budget = 0);

  /// Model access, valid after solve() returned Sat.  Variables never
  /// touched by the search read as False (a complete model is produced for
  /// all variables that existed at solve time).
  [[nodiscard]] Value value(Var v) const;
  [[nodiscard]] bool model_true(Lit l) const {
    const Value v = value(l.var());
    return l.sign() ? v == Value::False : v == Value::True;
  }

  /// After solve() returned Unsat under assumptions: the subset of the
  /// assumptions the refutation used (in the order given to solve()).
  /// Empty when the formula is Unsat regardless of assumptions.
  [[nodiscard]] const std::vector<Lit>& failed_assumptions() const {
    return conflict_core_;
  }

  /// Records the current variables, problem clauses and root assignments
  /// as the baseline.  Only at decision level 0 with no learnt clauses.
  void mark_baseline();
  /// Drops every variable, problem clause and learnt clause added since
  /// mark_baseline() and restores the activities, saved phases, decision
  /// order, root trail and clause watches the baseline had, so the solver
  /// then behaves exactly as it did at the mark.  Stats keep counting.
  void restore_baseline();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Activity rescales so far, and positive activities they set to 0.0.
  [[nodiscard]] std::uint64_t rescales() const { return rescales_; }
  [[nodiscard]] std::uint64_t underflows() const { return underflows_; }
  /// Decisions that were not the unassigned queued variable of highest
  /// activity (ties toward the smaller index).  Scaling keeps the heap
  /// order while activities stay distinct; once a rescale underflows two
  /// of them to the same value the heap can hold them out of order, and
  /// only then does this observer scan the heap at every decision.
  [[nodiscard]] std::uint64_t out_of_order_picks() const {
    return out_of_order_picks_;
  }
  [[nodiscard]] bool inconsistent() const { return !ok_; }
  [[nodiscard]] std::size_t num_clauses() const { return num_problem_clauses_; }

  /// Visits every stored problem clause (learnt clauses excluded) as
  /// f(codes, size) where codes[i] is a Lit::x value.  Clauses are stored
  /// post-simplification: unit clauses and clauses satisfied at the root
  /// level live on the root trail instead -- dump them via root_literals().
  template <typename F>
  void for_each_problem_clause(F&& f) const {
    for (const ClauseRef c : clauses_) f(clause_codes(c), clause_size(c));
  }

  /// The decision-level-0 assignments (added units plus their propagated
  /// consequences).  Only meaningful between solves (the solver always
  /// returns at level 0).
  [[nodiscard]] const std::vector<Lit>& root_literals() const {
    return trail_;
  }

 private:
  // Clauses live in one flat int arena: [size, learnt, lit0, lit1, ...].
  // A ClauseRef is the arena offset of its size word; watchers store refs.
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoClause = 0xFFFFFFFFu;

  [[nodiscard]] int clause_size(ClauseRef c) const { return arena_[c]; }
  [[nodiscard]] bool clause_learnt(ClauseRef c) const {
    return arena_[c + 1] != 0;
  }
  // Literal codes (Lit::x) stored directly as ints in the arena.
  [[nodiscard]] int* clause_codes(ClauseRef c) { return &arena_[c + 2]; }
  [[nodiscard]] const int* clause_codes(ClauseRef c) const {
    return &arena_[c + 2];
  }
  [[nodiscard]] Lit clause_lit(ClauseRef c, int i) const {
    Lit l;
    l.x = arena_[c + 2 + i];
    return l;
  }

  ClauseRef alloc_clause(std::span<const Lit> lits, bool learnt);
  void watch_clause(ClauseRef c);
  void rewatch_problem_clauses();

  [[nodiscard]] Value lit_value(Lit l) const;
  void enqueue(Lit l, ClauseRef reason);
  /// BCP over the watch lists; returns the conflicting clause or kNoClause.
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& bt_level);
  void analyze_final(Lit failed);  ///< fills conflict_core_ from a failed enqueue
  [[nodiscard]] bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void backtrack(int level);
  void var_bump(Var v);
  void var_decay();
  [[nodiscard]] Lit pick_branch();

  // Indexed max-heap over var activity (ties -> smaller index), the
  // deterministic VSIDS order.
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  [[nodiscard]] bool heap_less(Var a, Var b) const;
  void heap_sift_up(int i);
  void heap_sift_down(int i);
  [[nodiscard]] bool heap_ordered() const;

  [[nodiscard]] int level_of(Var v) const { return level_[v]; }
  [[nodiscard]] static std::uint64_t luby(std::uint64_t i);

  bool ok_ = true;
  std::vector<int> arena_;
  std::vector<ClauseRef> clauses_;          ///< problem clauses
  std::vector<ClauseRef> learnts_;          ///< learned clauses
  std::size_t num_problem_clauses_ = 0;

  std::vector<Value> assign_;               ///< per var
  std::vector<std::uint8_t> phase_;         ///< saved phase per var
  std::vector<int> level_;                  ///< decision level per var
  std::vector<ClauseRef> reason_;           ///< implying clause per var
  std::vector<double> activity_;            ///< VSIDS activity per var
  double activity_inc_ = 1.0;

  std::vector<std::vector<ClauseRef>> watches_;  ///< per literal index
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;              ///< trail index per decision level
  std::size_t qhead_ = 0;

  std::vector<int> heap_;                   ///< heap of vars
  std::vector<int> heap_pos_;               ///< var -> heap index, -1 if absent

  std::vector<Lit> assumptions_;
  std::vector<Lit> conflict_core_;
  std::vector<Value> model_;  ///< snapshot of the last Sat assignment

  // analyze() scratch.
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;
  std::vector<Lit> add_scratch_;  ///< add_clause() normalization buffer

  // The mark_baseline() snapshot: sizes plus copies of everything search
  // permutes in place (clause literal order, activities, phases, heap).
  struct Baseline {
    bool set = false;
    bool ok = true;
    int vars = 0;
    std::size_t clauses = 0;
    std::size_t trail = 0;
    double activity_inc = 1.0;
    std::vector<int> arena;
    std::vector<double> activity;
    std::vector<std::uint8_t> phase;
    std::vector<int> heap;
  };
  Baseline baseline_;

  Stats stats_;
  std::uint64_t rescales_ = 0;
  std::uint64_t underflows_ = 0;
  bool unordered_ = false;  ///< a rescale left the heap out of order
  std::uint64_t out_of_order_picks_ = 0;
};

}  // namespace hlts::test_support
