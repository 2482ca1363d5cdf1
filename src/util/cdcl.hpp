// A small in-repo CDCL SAT solver, in the MiniSat lineage.
//
// The SAT deterministic-ATPG backend (src/atpg/sat_backend) encodes
// k-timeframe stuck-at miters of the gate netlist as CNF (src/gates/cnf)
// and needs a solver that is (a) deterministic -- same formula, same
// assumptions, same budget, same answer and same model, bit for bit, on
// every platform -- and (b) incremental: the unrolled good-machine netlist
// is encoded once and shared across hundreds of target faults, each fault
// adding its miter cone under a fresh activation literal and solving under
// that assumption.
//
// The implementation is the classic conflict-driven core:
//   - two-watched-literal propagation (clauses are only touched when one of
//     their two watchers is falsified);
//   - VSIDS decision heuristic (exponentially-decayed activity bumping on
//     conflict participation) with phase saving;
//   - first-UIP conflict analysis producing one learned clause per conflict,
//     with recursive self-subsumption minimization;
//   - Luby-sequence restarts;
//   - assumption-based solving: solve({a1..an}) answers "satisfiable with
//     a1..an forced true?"; on Unsat, failed_assumptions() returns the
//     subset of assumptions the final conflict depends on (an unsat core
//     over the assumptions, not guaranteed minimal);
//   - a per-call conflict budget: exceeding it returns Status::Unknown,
//     the bounded-effort "abort" the ATPG orchestrator expects;
//   - a baseline: mark_baseline() records the clause database, and
//     restore_baseline() later drops every variable, clause and learnt
//     clause added since and puts the search state back exactly as it was,
//     so a caller can shed accumulated per-query garbage without
//     re-encoding the shared part of its formula.
//
// Determinism: there is no randomness anywhere (ties in VSIDS break by
// variable index through the activity heap's ordering), no pointers are
// compared, and no wall-clock input exists; the solver is a pure function
// of the clause/assumption/budget history.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hlts::util::cdcl {

/// Variables are 0-based dense indices; literals are 2*var + (negated?1:0),
/// MiniSat-style, so ~lit flips the low bit.
using Var = int;

struct Lit {
  int x = -2;  ///< 2*var + sign; -2 = undefined

  Lit() = default;
  constexpr Lit(Var v, bool negated) : x(2 * v + (negated ? 1 : 0)) {}

  [[nodiscard]] constexpr Var var() const { return x >> 1; }
  [[nodiscard]] constexpr bool sign() const { return (x & 1) != 0; }
  constexpr Lit operator~() const {
    Lit q;
    q.x = x ^ 1;
    return q;
  }
  friend constexpr bool operator==(Lit a, Lit b) { return a.x == b.x; }
  friend constexpr bool operator!=(Lit a, Lit b) { return a.x != b.x; }
};

/// Positive literal of `v`.
[[nodiscard]] constexpr Lit mk_lit(Var v, bool negated = false) {
  return Lit(v, negated);
}

enum class Status {
  Sat,      ///< a model exists (read it via value())
  Unsat,    ///< no model under the given assumptions
  Unknown,  ///< conflict budget exhausted before an answer
};

enum class Value : std::uint8_t { False = 0, True = 1, Undef = 2 };

struct Stats {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t minimized_literals = 0;  ///< removed by clause minimization
};

class Solver {
 public:
  Solver();

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
};

}  // namespace hlts::util::cdcl
