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
// Decision order: the next free decision is the unassigned queued variable
// with the highest VSIDS activity, ties toward the smaller index.  The
// queue has two tiers.  Variables with a positive activity sit in an
// indexed max-heap under exactly that order; variables with activity 0.0
// -- on ATPG targets nearly all of them: a fault's fresh cone variables
// and every good-machine variable no conflict has touched yet -- sit in a
// bitset and leave it lowest index first.  Activities never go negative,
// so every heap variable precedes every bitset variable, and equal zeros
// are ordered by index in both tiers: the two tiers pop exactly the
// sequence one heap over all queued variables would (while that heap is in
// order: a rescale that underflows activities can leave a single heap out
// of order, see DESIGN.md section 15), without sifting thousands of zeros
// through it.  A bump moves a queued variable from the bitset into the
// heap, and a rescale that underflows an activity to 0.0 moves it back.
//
// Propagation: literal values are read from a per-literal table (one byte
// per literal, kept by enqueue and backtrack), and a binary clause -- on
// the paper designs 70% of the good machine's clauses and 45% of a fault
// cone's -- is settled from its watcher, which carries the clause's other
// literal, without reading the clause.  It keeps its place in the watch
// list, so the implication order is the one a clause-by-clause walk gives.
//
// Determinism: there is no randomness anywhere (ties in VSIDS break by
// variable index through the queue's ordering), no pointers are compared,
// and no wall-clock input exists; the solver is a pure function of the
// clause/assumption/budget history.
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

  friend bool operator==(const Stats&, const Stats&) = default;
};

class Solver {
 public:
  Solver();

  /// Allocates a fresh variable and returns it.
  Var new_var();
  [[nodiscard]] int num_vars() const { return static_cast<int>(level_.size()); }

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
  // A binary clause lives in the arena like any other, but propagation
  // settles it from its watchers alone: a watcher is kBinary | the code of
  // the clause's other literal, and a reason or conflict it yields is
  // kBinary | the code of the literal in slot 1 (the literal in slot 0 is
  // the implied one, or conflict_head_ for a conflict).  Arena offsets stay
  // below kBinary.  The arena copy of a binary clause keeps the order it
  // was added in.
  static constexpr ClauseRef kBinary = 0x80000000u;

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
  /// Size and literal i of a reason or conflict (an arena clause or a
  /// binary one); `head` is its literal in slot 0.
  [[nodiscard]] int reason_size(ClauseRef r) const {
    return (r & kBinary) != 0 ? 2 : clause_size(r);
  }
  [[nodiscard]] Lit reason_lit(ClauseRef r, int i, Lit head) const {
    if ((r & kBinary) == 0) return clause_lit(r, i);
    if (i == 0) return head;
    Lit l;
    l.x = static_cast<int>(r & ~kBinary);
    return l;
  }

  ClauseRef alloc_clause(std::span<const Lit> lits, bool learnt);
  void watch_clause(ClauseRef c);
  void rewatch_problem_clauses();

  [[nodiscard]] Value lit_value(Lit l) const {
    return lit_value_[static_cast<std::size_t>(l.x)];
  }
  [[nodiscard]] bool unassigned(Var v) const {
    return lit_value_[2 * static_cast<std::size_t>(v)] == Value::Undef;
  }
  void enqueue(Lit l, ClauseRef reason);
  /// BCP over the watch lists; returns the conflicting clause or kNoClause.
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& bt_level);
  void analyze_final(Lit failed);  ///< fills conflict_core_ from a failed enqueue
  [[nodiscard]] bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void backtrack(int level);
  void var_bump(Var v);
  void var_decay();
  /// Scales every activity down by kActivityRescale; heap variables whose
  /// activity underflows to 0.0 move to the idle tier.
  void rescale_activities();
  [[nodiscard]] Lit pick_branch();

  // The two-tier decision queue (see the header comment).  A queued
  // variable is in the heap when its activity is positive, in the idle
  // bitset when it is 0.0.
  void queue_insert(Var v);  ///< queues a variable that is not in the heap
  [[nodiscard]] bool idle(Var v) const {
    const auto i = static_cast<std::size_t>(v);
    return ((idle_[i >> 6] >> (i & 63)) & 1u) != 0;
  }
  void idle_set(Var v);
  void idle_clear(Var v) {
    const auto i = static_cast<std::size_t>(v);
    idle_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  // Indexed max-heap over positive activities (ties -> smaller index).
  void heap_insert(Var v);
  Var heap_pop();
  [[nodiscard]] bool heap_less(Var a, Var b) const;
  void heap_sift_up(int i);
  void heap_sift_down(int i);
  void heap_rebuild();  ///< restores heap order and heap_pos_ over heap_

  [[nodiscard]] int level_of(Var v) const { return level_[v]; }
  [[nodiscard]] static std::uint64_t luby(std::uint64_t i);

  bool ok_ = true;
  std::vector<int> arena_;
  std::vector<ClauseRef> clauses_;          ///< problem clauses
  std::vector<ClauseRef> learnts_;          ///< learned clauses
  std::size_t num_problem_clauses_ = 0;

  std::vector<Value> lit_value_;            ///< per literal index (Lit::x)
  std::vector<std::uint8_t> phase_;         ///< saved phase per var
  std::vector<int> level_;                  ///< decision level per var
  std::vector<ClauseRef> reason_;           ///< implying clause per var
  std::vector<double> activity_;            ///< VSIDS activity per var
  double activity_inc_ = 1.0;

  std::vector<std::vector<ClauseRef>> watches_;  ///< per literal index
  Lit conflict_head_;  ///< slot 0 of the binary conflict propagate() found
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;              ///< trail index per decision level
  std::size_t qhead_ = 0;

  std::vector<int> heap_;                   ///< queued vars, activity > 0
  std::vector<int> heap_pos_;               ///< var -> heap index, -1 if absent
  std::vector<std::uint64_t> idle_;         ///< bitset: queued, activity 0
  std::size_t idle_first_ = 0;              ///< no idle_ word below is nonzero

  std::span<const Lit> assumptions_;  ///< the running solve()'s, not a copy
  std::vector<Lit> conflict_core_;
  std::vector<Value> model_;  ///< snapshot of the last Sat assignment

  // solve() and analyze() scratch.
  std::vector<Lit> learnt_;
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;
  std::vector<Lit> add_scratch_;  ///< add_clause() normalization buffer

  // The mark_baseline() snapshot: sizes plus copies of everything search
  // permutes in place (clause literal order, activities, phases, both
  // queue tiers).
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
    std::vector<std::uint64_t> idle;
    std::size_t idle_first = 0;
  };
  Baseline baseline_;

  Stats stats_;
};

}  // namespace hlts::util::cdcl
