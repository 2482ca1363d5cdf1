// Netlist -> CNF time-frame lowering for the SAT ATPG backend.
//
// TimeFrameCnf unrolls a sequential gate netlist over k time frames into
// CNF for the util::cdcl solver, using the *same dual-rail (two-plane)
// three-valued encoding* as the wide fault simulator (atpg/wide_sim.hpp):
// every signal s in frame t is a pair of literals (one, zero) with
//
//   one=1,zero=0  ->  s = 1        one=0,zero=1  ->  s = 0
//   one=0,zero=0  ->  s = X        one=1,zero=1  ->  (unreachable)
//
// and every gate's plane equations are the simulator's equations verbatim
// (AND: v1 = AND of input one-planes, v0 = OR of input zero-planes; XOR:
// v1 = a1 b0 | a0 b1; MUX: v1 = s0 a1 | s1 b1 | a1 b1; ...).  Primary
// inputs are binary (one plane a free variable x, zero plane its negation),
// constants are fixed, flip-flops power up X in frame 0 (both planes false)
// and chain to their data input's planes of the previous frame, and the
// "reset" input -- when present -- is the constant 1 in frame 0 and 0
// afterwards, exactly the base state the time-frame PODEM uses (constants
// fold through the and/or definitions, so the reset logic costs nothing).
// Because the planes are then *functions* of the per-frame PI variables,
// every model corresponds to a concrete simulation run: a SAT model's
// extracted input sequence is confirmed by the fault simulator by
// construction, and UNSAT is a proof that no k-frame test from the X
// power-up state exists (the same frame bound the PODEM backend searches
// under).
//
// Faults are added incrementally on top of the one shared good-machine
// unrolling (encoded once in the constructor): add_fault() re-encodes only
// the fanout cone of the fault site -- within a frame combinationally,
// across frames through flip-flops -- against fresh variables, with the
// site's planes tied to the stuck value (the dual-rail form of fault
// injection: the simulator's sa-masks collapse to constants in a
// single-fault lane).  The cone keeps only slots (gate g, frame t) that
// can matter: an observed output must be reachable from the slot within
// the frame bound, and some input of the slot must still be in the cone
// with faulty planes that did not fold to the good ones.  Detection terms
// ((good one & faulty zero) | (good zero & faulty one) at an observed
// output, the simulator's detection expression) feed one clause guarded by
// a fresh activation literal; the caller solves under that assumption and
// retires the fault with a unit clause afterwards, so learned clauses carry
// over from fault to fault.
//
// The cone also carries the active-path constraint (Larrabee 1992, in
// dual-rail form).  Every cone slot gets a variable a with
//
//   a -> (g1 & f0) | (g0 & f1)         a binary good/faulty difference,
//   a -> OR of a over g's cone fanouts  combinational ones in frame t, DFF
//                                       ones in frame t+1 (not for outputs),
//   act -> OR over t of a(site, t).
//
// (a is the constant false where either machine is the constant X.)  The
// plane equations are positive, so every gate is monotone in the
// X-below-binary order; a binary difference at a gate output therefore
// forces one at some input (the join of the two input vectors would
// otherwise map to both v and ~v).  Every detecting model thus has a path
// of binary differences from a site slot to an observed output, and
// setting a along it satisfies the new clauses: no test is lost, Unsat
// stays a proof within the same frame bound, and every Sat model is still
// a concrete simulation run.  What the clauses add is pruning: CDCL learns
// at once that a difference with nowhere to go is useless, so hard
// untestable faults are refuted within a small conflict budget.
//
// reset() drops every fault added so far (variables, clauses and learnt
// clauses) and restores the solver to the exact state the constructor
// left it in, without re-encoding the good machine.  Encoding allocates
// nothing per clause or per gate: clauses go through member buffers, and
// the per-variable dump notes are compact records formatted only by
// dump_dimacs.  The per-fault cone walk and re-encoding read kinds, inputs
// and fanouts from a GateTable (gates/gate_table.hpp), whose fanout
// entries carry the DFF frame-crossing bit.
//
// Variable numbering is stable and deterministic: good-machine planes are
// allocated frame-major in gate-id order, per-fault cone variables in
// frame-major levelized order, so identical inputs produce an identical
// CNF bit for bit (dump_dimacs emits it with a comment-line var map).
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gates/gate_table.hpp"
#include "gates/netlist.hpp"
#include "util/cdcl.hpp"

namespace hlts::gates {

class TimeFrameCnf {
 public:
  /// Encodes the good-machine unrolling of `nl` over `frames` >= 1 frames.
  /// `reset_index` is the PI position forced 1-then-0 (-1: no reset input).
  TimeFrameCnf(const Netlist& nl, int frames, int reset_index = -1);

  [[nodiscard]] util::cdcl::Solver& solver() { return solver_; }
  [[nodiscard]] const util::cdcl::Solver& solver() const { return solver_; }
  [[nodiscard]] int frames() const { return frames_; }

  /// Encodes the faulty cone + guarded detection clause for a stuck-at
  /// fault on `site`'s output.  Returns the activation literal: solve under
  /// {act} to search for a test, Unsat under {act} proves the fault has no
  /// k-frame test.  A structurally unobservable cone yields an activation
  /// literal that is immediately refutable (clause [~act]).
  util::cdcl::Lit add_fault(GateId site, bool stuck_at_one);

  /// Permanently deactivates a fault's detection clause so later solves
  /// are not burdened by it.  (Its cone definitions stay; they are
  /// satisfiable definitions of otherwise-unconstrained variables.)
  void retire_fault(util::cdcl::Lit act);

  /// Drops every fault added so far and restores the good-machine encoding
  /// exactly as the constructor left it (see util::cdcl::Solver::
  /// restore_baseline); solver stats keep counting.
  void reset();

  /// After solver().solve({act}) returned Sat: the per-frame PI vectors of
  /// the model, in TestSequence shape (frames x num_inputs).
  [[nodiscard]] std::vector<std::vector<bool>> extract_sequence() const;

  /// Good-machine plane literals of gate `g` in `frame` (for tests and the
  /// var-map dump).
  [[nodiscard]] util::cdcl::Lit one_lit(GateId g, int frame) const;
  [[nodiscard]] util::cdcl::Lit zero_lit(GateId g, int frame) const;

  /// Writes the current clause set in DIMACS format, prefixed by a
  /// comment-line variable map ("c v <dimacs-var> <role>") and -- when
  /// `assume` is a real literal -- the assumption the solve ran under.
  void dump_dimacs(std::ostream& os,
                   util::cdcl::Lit assume = util::cdcl::Lit()) const;

 private:
  using Lit = util::cdcl::Lit;

  /// What a solver variable encodes, kept compact per variable and only
  /// formatted by dump_dimacs.
  enum class Role : std::uint8_t { True, Input, Gate, Path, Detect, Act };
  struct VarNote {
    Role role = Role::True;
    std::int32_t fault = -1;  ///< index into faults_; -1: the good machine
    std::int32_t frame = 0;
    GateId gate;
  };

  [[nodiscard]] std::size_t slot(GateId g, int frame) const {
    return static_cast<std::size_t>(frame) * nl_.num_gates() + g.index();
  }
  [[nodiscard]] bool in_cone(std::size_t s) const {
    return cone_mark_[s] == cone_epoch_;
  }
  [[nodiscard]] Lit faulty_one(std::size_t s) const {
    return in_cone(s) ? faulty_one_[s] : good_one_[s];
  }
  [[nodiscard]] Lit faulty_zero(std::size_t s) const {
    return in_cone(s) ? faulty_zero_[s] : good_zero_[s];
  }
  /// A fresh variable noted as `role` in the current note_ context.  The
  /// and/or gates make_and() adds are noted as note_.role.
  Lit fresh(Role role);
  [[nodiscard]] Lit make_and(std::span<const Lit> lits);
  [[nodiscard]] Lit make_or(std::span<const Lit> lits);
  [[nodiscard]] Lit make_and(Lit a, Lit b);
  [[nodiscard]] Lit make_or(Lit a, Lit b);
  [[nodiscard]] Lit make_or(Lit a, Lit b, Lit c);
  /// Encodes one combinational gate's planes from in_one_/in_zero_.
  void encode_gate(GateKind kind, Lit& out_one, Lit& out_zero);
  /// Collects the fault's cone slots into cone_ in encoding order.
  void collect_cone(GateId site);
  [[nodiscard]] std::string describe(const VarNote& note) const;

  const Netlist& nl_;
  const GateTable table_;  ///< kinds, inputs and fanouts for the cone walks
  int frames_;
  util::cdcl::Solver solver_;
  Lit true_lit_;  ///< a literal fixed true (its negation is fixed false)

  // Good-machine plane literals, indexed by slot(g, frame).
  std::vector<Lit> good_one_;
  std::vector<Lit> good_zero_;

  // Per gate: its position in encoding order (sources first, then the
  // levelized gates), the inverse map, and whether it is an observed output.
  std::vector<std::uint32_t> rank_;
  std::vector<GateId> by_rank_;
  std::vector<std::uint8_t> is_output_;
  /// Per slot: an observed output is reachable within the frame bound.
  std::vector<std::uint8_t> observable_;

  // Scratch for add_fault.  A slot belongs to the current cone when its
  // cone_mark_ equals cone_epoch_; the faulty planes and path variables
  // are only meaningful there.  cone_ holds the cone's order keys
  // (frame * num_gates + rank).
  std::vector<std::uint32_t> cone_mark_;
  std::uint32_t cone_epoch_ = 0;
  std::vector<std::size_t> cone_;
  std::vector<std::uint64_t> cone_key_bits_;  ///< collect_cone's key sort
  std::vector<Lit> faulty_one_;
  std::vector<Lit> faulty_zero_;
  std::vector<Lit> path_;

  // Allocation-free gate encoding: gate input planes, and make_and/make_or
  // buffers.
  std::vector<Lit> in_one_;
  std::vector<Lit> in_zero_;
  std::vector<Lit> kept_;
  std::vector<Lit> negated_;
  std::vector<Lit> clause_;

  // The dump's variable map: one note per solver variable, the context the
  // next fresh() records, and the faults added since the last reset().
  VarNote note_;
  std::vector<VarNote> var_notes_;
  std::vector<std::pair<GateId, bool>> faults_;
};

}  // namespace hlts::gates
