// Behavioral data-flow graph (DFG).
//
// This is the output of the behavioral front end (the paper's "VHDL compiler
// default allocation"): one operation node per operation *instance* in the
// source, connected through named variables.  Every synthesis flow in the
// repo -- CAMAD-style, Approach 1 (FDS), Approach 2 (mobility-path) and the
// paper's integrated Algorithm 1 -- starts from this representation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/ids.hpp"

namespace hlts::dfg {

struct OpTag {};
struct VarTag {};

/// Identifies an operation instance (the paper's N21, N22, ...).
using OpId = Id<OpTag>;
/// Identifies a variable (the paper's a, b, ..., z, p1, ..., q4).
using VarId = Id<VarTag>;

/// Operation kinds supported by the module library.  The paper's benchmarks
/// use *, +, -, < (and CAMAD's tables additionally mark +/- ALUs).
enum class OpKind {
  Add,
  Sub,
  Mul,
  Div,
  Less,
  Greater,
  Equal,
  And,
  Or,
  Xor,
  Not,
  ShiftLeft,
  ShiftRight,
  Move,  // register-to-register copy (identity)
};

/// Returns the conventional symbol: Add -> "+", Mul -> "*", ...
[[nodiscard]] const char* op_symbol(OpKind kind);
/// Returns a lowercase name: Add -> "add", ...
[[nodiscard]] const char* op_name(OpKind kind);
/// Number of data inputs the kind consumes (1 for Not/Move, else 2).
[[nodiscard]] int op_arity(OpKind kind);
/// True when both ALU kinds can share one functional module in the default
/// module library (e.g. Add/Sub share an adder-subtracter ALU; comparisons
/// share the subtracter as well).  Mul and Div each need a dedicated module.
[[nodiscard]] bool ops_module_compatible(OpKind a, OpKind b);
/// The module-library class of a kind: ops_module_compatible(a, b) exactly
/// when module_class(a) == module_class(b).
[[nodiscard]] int module_class(OpKind kind);
/// True for Less/Greater/Equal.
[[nodiscard]] bool op_is_comparison(OpKind kind);

/// A variable: produced by at most one operation (or a primary input) and
/// consumed by any number of operations (and possibly a primary output).
struct Variable {
  std::string name;
  bool is_primary_input = false;
  bool is_primary_output = false;
  /// For primary outputs: true when the value must be held in a register
  /// (loop state such as Diffeq's u1/x1/y1); false when it streams straight
  /// to an output port (Dct's s0..s5, which Table 2 leaves unregistered).
  bool po_registered = false;
  OpId def;                 ///< defining operation; invalid for primary inputs
  std::vector<OpId> uses;   ///< operations reading this variable
};

/// An operation instance.
struct Operation {
  std::string name;             ///< e.g. "N21"
  OpKind kind = OpKind::Add;
  std::vector<VarId> inputs;    ///< size == op_arity(kind)
  VarId output;                 ///< the variable this op defines
};

/// The data-flow graph.  Acyclic over data dependences (a basic block /
/// unrolled loop body, as in all six benchmarks).
class Dfg {
 public:
  explicit Dfg(std::string name = "dfg") : name_(std::move(name)) {}

  /// --- construction -------------------------------------------------------

  /// Declares a primary-input variable.
  VarId add_input(const std::string& name);
  /// Declares an internal variable that some operation will later define.
  VarId add_variable(const std::string& name);
  /// Marks an existing variable as a primary output.  `registered` selects
  /// whether the value occupies a register (state variable) or feeds an
  /// output port directly.
  void mark_output(VarId var, bool registered = false);

  /// True when the variable occupies a register in the data path: primary
  /// inputs, variables with at least one consuming operation, and registered
  /// primary outputs.
  [[nodiscard]] bool needs_register(VarId var) const;
  /// Adds an operation defining `output` from `inputs`.  `output` must not
  /// already have a definition.
  OpId add_op(const std::string& name, OpKind kind,
              const std::vector<VarId>& inputs, VarId output);
  /// Convenience: creates the output variable and the operation in one call.
  OpId add_op_new_var(const std::string& op_name, OpKind kind,
                      const std::vector<VarId>& inputs,
                      const std::string& out_var_name);

  /// --- queries ------------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_ops() const { return ops_.size(); }
  [[nodiscard]] std::size_t num_vars() const { return vars_.size(); }
  [[nodiscard]] const Operation& op(OpId id) const { return ops_[id]; }
  [[nodiscard]] const Variable& var(VarId id) const { return vars_[id]; }
  [[nodiscard]] IdRange<OpId> op_ids() const { return id_range<OpId>(ops_.size()); }
  [[nodiscard]] IdRange<VarId> var_ids() const {
    return id_range<VarId>(vars_.size());
  }

  /// Looks a variable up by name; nullopt if absent.
  [[nodiscard]] std::optional<VarId> find_var(const std::string& name) const;
  /// Looks an operation up by name; nullopt if absent.
  [[nodiscard]] std::optional<OpId> find_op(const std::string& name) const;

  /// Data predecessors of `op`: the defining ops of its non-PI inputs.
  [[nodiscard]] std::vector<OpId> preds(OpId op) const;
  /// Data successors of `op`: all ops using its output variable.
  [[nodiscard]] std::vector<OpId> succs(OpId op) const;

  [[nodiscard]] std::vector<VarId> primary_inputs() const;
  [[nodiscard]] std::vector<VarId> primary_outputs() const;

  /// Topological order of operations over data dependences.
  /// Throws hlts::Error if the graph has a dependence cycle.
  [[nodiscard]] std::vector<OpId> topo_order() const;

  /// Length (in operations) of the longest dependence chain; the lower bound
  /// on schedule length when each op takes one control step.
  [[nodiscard]] int critical_path_ops() const;

  /// Structural validation: arities match, every non-PI variable consumed by
  /// an op or marked output has a definition, graph is acyclic.
  void validate() const;

  /// Graphviz dump for debugging / documentation.
  [[nodiscard]] std::string to_dot() const;

 private:
  std::string name_;
  IndexVec<OpId, Operation> ops_;
  IndexVec<VarId, Variable> vars_;
};

}  // namespace hlts::dfg
