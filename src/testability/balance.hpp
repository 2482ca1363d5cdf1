// Controllability/observability balance allocation (paper §3).
//
// "The basic idea is to fold nodes with good controllability and bad
// observability to nodes with good observability and bad controllability
// ... the new node will inherit the good controllability from one of the
// old nodes and the good observability from the other."
//
// This file ranks all feasible merger pairs (module-module and
// register-register) by a balance score and streams them, best first, to
// Algorithm 1's cost evaluation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "etpn/etpn.hpp"
#include "testability/testability.hpp"

namespace hlts::testability {

/// One candidate merger pair.
struct MergeCandidate {
  enum class Kind { Modules, Registers } kind = Kind::Modules;
  etpn::ModuleId module_a, module_b;  ///< valid when kind == Modules
  etpn::RegId reg_a, reg_b;           ///< valid when kind == Registers
  /// Balance score: resulting min(controllability, observability) of the
  /// merged node, plus a complementarity bonus, minus a self-loop penalty.
  double score = 0.0;
  /// True when the merger would create a register<->module self-loop.
  bool creates_self_loop = false;

  // Kind dispatch, in one place: these helpers are the single source of
  // truth for "which two binding groups does this candidate name and how is
  // the merger applied".
  [[nodiscard]] bool is_modules() const { return kind == Kind::Modules; }
  /// The raw ids of the two binding groups (module or register ids).
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> group_ids() const {
    return is_modules() ? std::pair{module_a.value(), module_b.value()}
                        : std::pair{reg_a.value(), reg_b.value()};
  }
  /// Applies the merger to `b` (merge_modules or merge_regs; the first
  /// group survives).
  void apply(const dfg::Dfg& g, etpn::Binding& b) const;
  /// Data-path nodes of the two groups under `e`'s node maps
  /// {survivor, merged-away}.
  [[nodiscard]] std::pair<etpn::DpNodeId, etpn::DpNodeId> nodes(
      const etpn::Etpn& e) const;
  /// "merge modules [(+): N1 | (+): N2]" -- the trajectory notation.
  [[nodiscard]] std::string description(const dfg::Dfg& g,
                                        const etpn::Binding& b) const;
};

struct BalanceOptions {
  /// Weight of the complementarity bonus (folding C-good/O-bad onto
  /// O-good/C-bad).
  double complementarity_weight = 0.5;
  /// Score penalty for creating a self-loop (self-loops are the hardest
  /// structures to test).
  double self_loop_penalty = 0.4;
  /// Scalarization lambda for Measure::scalar.
  double lambda = 0.3;
};

/// Op-level reachability over data dependences: reaches(a, b) when a path
/// of >= 1 arc leads from op a to op b.  It depends on the DFG alone, so
/// Algorithm 1 builds it once per run and every ranking borrows it.
class OpReachability {
 public:
  explicit OpReachability(const dfg::Dfg& g);

  [[nodiscard]] bool reaches(dfg::OpId a, dfg::OpId b) const {
    return (bits_[a.index() * words_ + b.index() / 64] >> (b.index() % 64)) &
           1u;
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;  ///< one row of words_ words per op
};

/// Answers "is merging registers ra/rb structurally impossible" for many
/// pairs against one (graph, binding) snapshot.
///
/// The naive per-pair check rebuilds the op-level reachability closure
/// (O(ops^2/64 * arcs)) and scans every operation for each query; across the
/// O(regs^2) pairs of one candidate-selection pass that dominated synthesis
/// on large graphs.  The oracle hoists both invariants out: reachability is
/// borrowed, and the paper's case (2) -- some op reads variables of both
/// registers -- is precomputed into a forbidden-pair set in one O(ops)
/// sweep.  Queries then cost only the case-(1) lifetime test.
///
/// The oracle borrows `g`, `b` and `reach` (which must be g's); it must not
/// outlive them, and `b`'s register assignment must not change between
/// construction and the last query.
class RegMergeOracle {
 public:
  RegMergeOracle(const dfg::Dfg& g, const etpn::Binding& b,
                 const OpReachability& reach);

  /// Same answer as register_merge_impossible(g, b, ra, rb).
  [[nodiscard]] bool impossible(etpn::RegId ra, etpn::RegId rb) const;

 private:
  const dfg::Dfg* g_;
  const etpn::Binding* b_;
  const OpReachability* reach_;
  /// Case (2) pairs, keyed (min_reg << 32) | max_reg; sorted, unique.
  std::vector<std::uint64_t> op_conflicts_;
};

/// True when merging the two registers is structurally impossible: an
/// operation consumes variables of both registers, or data dependences force
/// their lifetimes to overlap in both directions.  One-shot convenience
/// wrapper over RegMergeOracle; build the oracle yourself when checking many
/// pairs of the same binding.
[[nodiscard]] bool register_merge_impossible(const dfg::Dfg& g,
                                             const etpn::Binding& b,
                                             etpn::RegId ra, etpn::RegId rb);

/// A ranking pulled one candidate at a time.
///
/// The order is score descending, ties in enumeration order (the order of
/// add()) -- exactly what a stable sort of the enumeration by score gives.
/// Candidates arrive scored; the first next() builds a winner tree over
/// them (each inner node holds the better of its children's winners, the
/// left one on a tie), and each pull takes the root and replays its path,
/// so pulling the first few of n costs O(n) branch-free selections rather
/// than a full sort.  Register pairs pass RegMergeOracle's lifetime test,
/// the costly filter, only when they are pulled; an impossible pair is
/// skipped there, which leaves the relative order of the rest unchanged.
///
/// The stream borrows the graph, binding and reachability its oracle does.
class CandidateStream {
 public:
  CandidateStream(const dfg::Dfg& g, const etpn::Binding& b,
                  const OpReachability& reach);

  /// Room for `n` candidates.
  void reserve(std::size_t n);
  /// Enumerates one scored candidate.  All adds precede the first next().
  void add(const MergeCandidate& c);
  /// The next candidate in rank order, or nullopt once none is left.
  [[nodiscard]] std::optional<MergeCandidate> next();
  /// Pulls up to `k` candidates, in rank order.
  [[nodiscard]] std::vector<MergeCandidate> take(std::size_t k);

 private:
  /// A candidate as enumerated, its score aside.
  struct Slot {
    std::uint32_t a, b;  ///< group ids (MergeCandidate::group_ids)
    bool modules;
    bool creates_self_loop;
  };
  /// The better of two slots, `left` enumerated first.
  [[nodiscard]] std::uint32_t winner(std::uint32_t left,
                                     std::uint32_t right) const;

  RegMergeOracle oracle_;
  std::vector<Slot> slots_;
  std::vector<double> scores_;
  /// Per slot, a key ordered like its score; 0 once pulled (and for the
  /// padding up to a power of two).
  std::vector<std::uint64_t> keys_;
  /// The winner tree: node v's children are 2v and 2v + 1, leaf i is node
  /// leaves_ + i.
  std::vector<std::uint32_t> tree_;
  std::size_t leaves_ = 0;
  bool ordered_ = false;
};

/// The balance ranking of every feasible merger pair, as a stream.
///
/// Feasibility filters applied here (cheap, structural):
///  - module pairs must host compatible operation kinds;
///  - register pairs are rejected when some operation reads both registers'
///    variables (the paper's case (2): lifetimes can never be disjoint);
///  - register pairs are rejected when one register holds a variable
///    defined by an op whose output feeds the other and vice versa (the
///    paper's case (1): ordering arcs in both directions).
/// Schedulability (no constraint cycle) is checked later by the trial
/// rescheduling in Algorithm 1.  Each pair is scored from per-node
/// measures computed once per call.
[[nodiscard]] CandidateStream balance_candidates(
    const dfg::Dfg& g, const etpn::Binding& b, const etpn::Etpn& e,
    const TestabilityAnalysis& analysis, const OpReachability& reach,
    const BalanceOptions& options = {});

/// The first `k` candidates of balance_candidates(), over a reachability
/// built for this call.
[[nodiscard]] std::vector<MergeCandidate> select_balance_candidates(
    const dfg::Dfg& g, const etpn::Binding& b, const etpn::Etpn& e,
    const TestabilityAnalysis& analysis, int k,
    const BalanceOptions& options = {});

}  // namespace hlts::testability
