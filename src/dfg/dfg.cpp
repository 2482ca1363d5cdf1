#include "dfg/dfg.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <unordered_set>

namespace hlts::dfg {

const char* op_symbol(OpKind kind) {
  switch (kind) {
    case OpKind::Add: return "+";
    case OpKind::Sub: return "-";
    case OpKind::Mul: return "*";
    case OpKind::Div: return "/";
    case OpKind::Less: return "<";
    case OpKind::Greater: return ">";
    case OpKind::Equal: return "==";
    case OpKind::And: return "&";
    case OpKind::Or: return "|";
    case OpKind::Xor: return "^";
    case OpKind::Not: return "~";
    case OpKind::ShiftLeft: return "<<";
    case OpKind::ShiftRight: return ">>";
    case OpKind::Move: return "=";
  }
  return "?";
}

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::Add: return "add";
    case OpKind::Sub: return "sub";
    case OpKind::Mul: return "mul";
    case OpKind::Div: return "div";
    case OpKind::Less: return "less";
    case OpKind::Greater: return "greater";
    case OpKind::Equal: return "equal";
    case OpKind::And: return "and";
    case OpKind::Or: return "or";
    case OpKind::Xor: return "xor";
    case OpKind::Not: return "not";
    case OpKind::ShiftLeft: return "shl";
    case OpKind::ShiftRight: return "shr";
    case OpKind::Move: return "move";
  }
  return "?";
}

int op_arity(OpKind kind) {
  switch (kind) {
    case OpKind::Not:
    case OpKind::Move:
      return 1;
    default:
      return 2;
  }
}

bool op_is_comparison(OpKind kind) {
  return kind == OpKind::Less || kind == OpKind::Greater || kind == OpKind::Equal;
}

int module_class(OpKind kind) {
  // Module-library classes: multiplier, divider, logic unit, shifter, and
  // the arithmetic ALU (add/sub/compare share an adder core, as in the
  // paper's Ex table where (+) and (-) ALUs absorb comparisons).
  switch (kind) {
    case OpKind::Mul:
      return 0;
    case OpKind::Div:
      return 1;
    case OpKind::Add:
    case OpKind::Sub:
    case OpKind::Less:
    case OpKind::Greater:
    case OpKind::Equal:
      return 2;
    case OpKind::And:
    case OpKind::Or:
    case OpKind::Xor:
    case OpKind::Not:
      return 3;
    case OpKind::ShiftLeft:
    case OpKind::ShiftRight:
      return 4;
    case OpKind::Move:
      return 5;
  }
  return -1;
}

bool ops_module_compatible(OpKind a, OpKind b) {
  return module_class(a) == module_class(b);
}

VarId Dfg::add_input(const std::string& name) {
  HLTS_REQUIRE_INPUT(!find_var(name), "duplicate variable name: " + name);
  Variable v;
  v.name = name;
  v.is_primary_input = true;
  return vars_.push_back(std::move(v));
}

VarId Dfg::add_variable(const std::string& name) {
  HLTS_REQUIRE_INPUT(!find_var(name), "duplicate variable name: " + name);
  Variable v;
  v.name = name;
  return vars_.push_back(std::move(v));
}

void Dfg::mark_output(VarId var, bool registered) {
  HLTS_REQUIRE_INPUT(vars_.contains(var), "mark_output: bad variable id");
  vars_[var].is_primary_output = true;
  vars_[var].po_registered = registered;
}

bool Dfg::needs_register(VarId var) const {
  const Variable& v = vars_[var];
  if (v.is_primary_input) return true;
  if (!v.uses.empty()) return true;
  return v.is_primary_output && v.po_registered;
}

OpId Dfg::add_op(const std::string& name, OpKind kind,
                 const std::vector<VarId>& inputs, VarId output) {
  HLTS_REQUIRE_INPUT(!find_op(name), "duplicate operation name: " + name);
  HLTS_REQUIRE_INPUT(static_cast<int>(inputs.size()) == op_arity(kind),
                     "operation " + name + ": arity mismatch");
  HLTS_REQUIRE_INPUT(vars_.contains(output),
                     "operation " + name + ": bad output var");
  HLTS_REQUIRE_INPUT(!vars_[output].def.valid() && !vars_[output].is_primary_input,
                     "operation " + name + ": output already defined");
  for (VarId in : inputs) {
    HLTS_REQUIRE_INPUT(vars_.contains(in), "operation " + name + ": bad input var");
  }
  Operation op;
  op.name = name;
  op.kind = kind;
  op.inputs = inputs;
  op.output = output;
  OpId id = ops_.push_back(std::move(op));
  vars_[output].def = id;
  for (VarId in : inputs) {
    vars_[in].uses.push_back(id);
  }
  return id;
}

OpId Dfg::add_op_new_var(const std::string& op_name, OpKind kind,
                         const std::vector<VarId>& inputs,
                         const std::string& out_var_name) {
  VarId out = add_variable(out_var_name);
  return add_op(op_name, kind, inputs, out);
}

std::optional<VarId> Dfg::find_var(const std::string& name) const {
  for (VarId id : var_ids()) {
    if (vars_[id].name == name) return id;
  }
  return std::nullopt;
}

std::optional<OpId> Dfg::find_op(const std::string& name) const {
  for (OpId id : op_ids()) {
    if (ops_[id].name == name) return id;
  }
  return std::nullopt;
}

std::vector<OpId> Dfg::preds(OpId op) const {
  std::vector<OpId> out;
  for (VarId in : ops_[op].inputs) {
    OpId def = vars_[in].def;
    if (def.valid() && std::find(out.begin(), out.end(), def) == out.end()) {
      out.push_back(def);
    }
  }
  return out;
}

std::vector<OpId> Dfg::succs(OpId op) const {
  std::vector<OpId> out;
  for (OpId user : vars_[ops_[op].output].uses) {
    if (std::find(out.begin(), out.end(), user) == out.end()) {
      out.push_back(user);
    }
  }
  return out;
}

std::vector<VarId> Dfg::primary_inputs() const {
  std::vector<VarId> out;
  for (VarId id : var_ids()) {
    if (vars_[id].is_primary_input) out.push_back(id);
  }
  return out;
}

std::vector<VarId> Dfg::primary_outputs() const {
  std::vector<VarId> out;
  for (VarId id : var_ids()) {
    if (vars_[id].is_primary_output) out.push_back(id);
  }
  return out;
}

std::vector<OpId> Dfg::topo_order() const {
  IndexVec<OpId, int> indegree(ops_.size(), 0);
  for (OpId id : op_ids()) {
    indegree[id] = static_cast<int>(preds(id).size());
  }
  // Min-id queue keeps the order deterministic and stable across runs.
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>> ready;
  for (OpId id : op_ids()) {
    if (indegree[id] == 0) ready.push(id.value());
  }
  std::vector<OpId> order;
  order.reserve(ops_.size());
  while (!ready.empty()) {
    OpId id{ready.top()};
    ready.pop();
    order.push_back(id);
    for (OpId s : succs(id)) {
      if (--indegree[s] == 0) ready.push(s.value());
    }
  }
  HLTS_REQUIRE(order.size() == ops_.size(),
               "DFG '" + name_ + "' has a data-dependence cycle");
  return order;
}

int Dfg::critical_path_ops() const {
  IndexVec<OpId, int> depth(ops_.size(), 1);
  int best = 0;
  for (OpId id : topo_order()) {
    for (OpId p : preds(id)) {
      depth[id] = std::max(depth[id], depth[p] + 1);
    }
    best = std::max(best, depth[id]);
  }
  return best;
}

void Dfg::validate() const {
  for (OpId id : op_ids()) {
    const Operation& op = ops_[id];
    HLTS_REQUIRE(static_cast<int>(op.inputs.size()) == op_arity(op.kind),
                 "op " + op.name + ": arity mismatch");
    HLTS_REQUIRE(vars_[op.output].def == id,
                 "op " + op.name + ": output back-link broken");
  }
  for (VarId id : var_ids()) {
    const Variable& v = vars_[id];
    if (!v.is_primary_input && (v.is_primary_output || !v.uses.empty())) {
      HLTS_REQUIRE(v.def.valid(), "variable " + v.name + " is used but never defined");
    }
    HLTS_REQUIRE(!(v.is_primary_input && v.def.valid()),
                 "variable " + v.name + " is a primary input with a definition");
  }
  (void)topo_order();  // throws on cycles
}

std::string Dfg::to_dot() const {
  std::ostringstream os;
  os << "digraph \"" << name_ << "\" {\n  rankdir=TB;\n";
  for (VarId id : var_ids()) {
    const Variable& v = vars_[id];
    const char* shape = v.is_primary_input    ? "invtriangle"
                        : v.is_primary_output ? "triangle"
                                              : "ellipse";
    os << "  v" << id.value() << " [label=\"" << v.name << "\" shape=" << shape
       << "];\n";
  }
  for (OpId id : op_ids()) {
    const Operation& op = ops_[id];
    os << "  o" << id.value() << " [label=\"" << op.name << "\\n"
       << op_symbol(op.kind) << "\" shape=box];\n";
    for (VarId in : op.inputs) {
      os << "  v" << in.value() << " -> o" << id.value() << ";\n";
    }
    os << "  o" << id.value() << " -> v" << op.output.value() << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace hlts::dfg
