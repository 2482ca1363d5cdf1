// Controllability/observability balance allocation (paper §3).
//
// "The basic idea is to fold nodes with good controllability and bad
// observability to nodes with good observability and bad controllability
// ... the new node will inherit the good controllability from one of the
// old nodes and the good observability from the other."
//
// This file ranks all feasible merger pairs (module-module and
// register-register) by a balance score and returns the best k candidates
// for Algorithm 1's cost evaluation.
#pragma once

#include <cstdint>
#include <memory>
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

  // Kind dispatch, in one place.  Cache keying, trial evaluation and commit
  // descriptions all used to switch on `kind` by hand; these helpers are the
  // single source of truth for "which two binding groups does this candidate
  // name and how is the merger applied".
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

/// Ranks every feasible merger pair and returns the top `k` by score.
///
/// Feasibility filters applied here (cheap, structural):
///  - module pairs must host compatible operation kinds;
///  - register pairs are rejected when some operation reads both registers'
///    variables (the paper's case (2): lifetimes can never be disjoint);
///  - register pairs are rejected when one register holds a variable
///    defined by an op whose output feeds the other and vice versa (the
///    paper's case (1): ordering arcs in both directions).
/// Schedulability (no constraint cycle) is checked later by the trial
/// rescheduling in Algorithm 1.
[[nodiscard]] std::vector<MergeCandidate> select_balance_candidates(
    const dfg::Dfg& g, const etpn::Binding& b, const etpn::Etpn& e,
    const TestabilityAnalysis& analysis, int k,
    const BalanceOptions& options = {});

/// Answers "is merging registers ra/rb structurally impossible" for many
/// pairs against one (graph, binding) snapshot.
///
/// The naive per-pair check rebuilds the op-level reachability closure
/// (O(ops^2/64 * arcs)) and scans every operation for each query; across the
/// O(regs^2) pairs of one candidate-selection pass that dominated synthesis
/// on large graphs.  The oracle hoists both invariants out: reachability is
/// computed once, and the paper's case (2) -- some op reads variables of
/// both registers -- is precomputed into a forbidden-pair set in one O(ops)
/// sweep.  Queries then cost only the case-(1) lifetime test.  Answers are
/// identical to register_merge_impossible.
///
/// The oracle borrows `g` and `b`; it must not outlive them, and `b`'s
/// register assignment must not change between construction and the last
/// query.
class RegMergeOracle {
 public:
  RegMergeOracle(const dfg::Dfg& g, const etpn::Binding& b);
  ~RegMergeOracle();
  RegMergeOracle(const RegMergeOracle&) = delete;
  RegMergeOracle& operator=(const RegMergeOracle&) = delete;

  /// Same answer as register_merge_impossible(g, b, ra, rb).
  [[nodiscard]] bool impossible(etpn::RegId ra, etpn::RegId rb) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// True when merging the two registers is structurally impossible: an
/// operation consumes variables of both registers, or data dependences force
/// their lifetimes to overlap in both directions.  One-shot convenience
/// wrapper over RegMergeOracle; build the oracle yourself when checking many
/// pairs of the same binding.
[[nodiscard]] bool register_merge_impossible(const dfg::Dfg& g,
                                             const etpn::Binding& b,
                                             etpn::RegId ra, etpn::RegId rb);

}  // namespace hlts::testability
