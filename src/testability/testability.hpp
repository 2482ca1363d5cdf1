// Register-transfer-level testability analysis (after Gu, Kuchcinski & Peng,
// EURO-DAC'94), operating on the ETPN data path.
//
// Four measures per data-path line:
//   CC -- combinational controllability in (0, 1]: cost of setting a value
//         on the line (1 = as easy as a primary input),
//   SC -- sequential controllability >= 0: number of clocked stages a
//         justification sequence must traverse,
//   CO / SO -- the dual observability measures.
//
// The algorithm "assigns first ones to CCs and zeros to SCs for all primary
// inputs ... these values will then be propagated ... until the primary
// outputs are reached.  A similar approach can be used for calculating
// observability in the reverse direction."  Loops in the data path make the
// propagation a fixpoint iteration: all transfer functions are monotone and
// bounded, so Kleene iteration converges.
#pragma once

#include "etpn/etpn.hpp"
#include "util/ids.hpp"

namespace hlts::testability {

/// Controllability (or observability) of a line: a combinational factor in
/// [0,1] and a sequential depth.
struct Measure {
  double comb = 0.0;
  double seq = 0.0;

  /// Lexicographic quality: higher comb wins; ties broken by lower seq.
  [[nodiscard]] bool better_than(const Measure& o) const;

  /// Collapses the pair into one scalar in [0,1] for ranking decisions:
  /// comb / (1 + lambda * seq).
  [[nodiscard]] double scalar(double lambda = 0.3) const;
};

/// Combinational controllability transfer factor of an operation class: how
/// much of the input controllability survives to the output.
[[nodiscard]] double controllability_transfer(dfg::OpKind kind);
/// Observability transfer factor: how transparently a fault on one operand
/// propagates through the module to its output.
[[nodiscard]] double observability_transfer(dfg::OpKind kind);

/// Per-line and per-node testability of a data path.  Algorithm 1 runs
/// one full analysis per committed design (analysis::IncrementalContext);
/// there is no incremental update.
class TestabilityAnalysis {
 public:
  /// Runs the forward (controllability) and backward (observability)
  /// propagations to fixpoint.
  explicit TestabilityAnalysis(const etpn::DataPath& dp);

  /// Line measures (lines are identified with data path arcs).
  [[nodiscard]] Measure line_controllability(etpn::DpArcId a) const {
    return cc_[a];
  }
  [[nodiscard]] Measure line_observability(etpn::DpArcId a) const {
    return co_[a];
  }

  /// "The controllability of a node is defined as the best controllability
  /// of any of its input lines, while the observability of a node is the
  /// best observability of any of its output lines."
  [[nodiscard]] Measure node_controllability(etpn::DpNodeId n) const;
  [[nodiscard]] Measure node_observability(etpn::DpNodeId n) const;

  /// Design-level summary used by benches and the ablation study: the mean,
  /// over register and module nodes, of min(C.scalar, O.scalar) -- high when
  /// every node is both controllable and observable.
  [[nodiscard]] double balance_index() const;

  [[nodiscard]] const etpn::DataPath& data_path() const { return dp_; }

 private:
  void propagate_controllability();
  void propagate_observability();
  /// One controllability evaluation of `n` (reads in-arc cc); returns the
  /// measure its output lines carry.
  [[nodiscard]] Measure controllability_of(etpn::DpNodeId n) const;
  /// One observability evaluation of input line `in` of `n` (reads out-arc
  /// co and, for modules, sibling-port cc).
  [[nodiscard]] Measure observability_of(etpn::DpNodeId n, etpn::DpArcId in) const;

  const etpn::DataPath& dp_;
  IndexVec<etpn::DpArcId, Measure> cc_;
  IndexVec<etpn::DpArcId, Measure> co_;
};

}  // namespace hlts::testability
