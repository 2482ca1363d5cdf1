#include "etpn/binding.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/strings.hpp"

namespace hlts::etpn {

Binding Binding::default_binding(const dfg::Dfg& g, ModuleCompat compat) {
  Binding b;
  b.compat_ = compat;
  b.op_to_module_.resize(g.num_ops());
  for (dfg::OpId op : g.op_ids()) {
    ModuleId m = b.module_ops_.push_back({op});
    b.module_alive_.push_back(true);
    b.op_to_module_[op] = m;
  }
  b.var_to_reg_.resize(g.num_vars());
  for (dfg::VarId v : g.var_ids()) {
    if (!g.needs_register(v)) {
      b.var_to_reg_[v] = RegId::invalid();
      continue;
    }
    RegId r = b.reg_vars_.push_back({v});
    b.reg_alive_.push_back(true);
    b.var_to_reg_[v] = r;
  }
  return b;
}

Binding Binding::from_groups(const dfg::Dfg& g, ModuleCompat compat,
                             const std::vector<std::vector<dfg::OpId>>& module_groups,
                             const std::vector<bool>& module_alive,
                             const std::vector<std::vector<dfg::VarId>>& reg_groups,
                             const std::vector<bool>& reg_alive) {
  HLTS_REQUIRE_INPUT(module_groups.size() == module_alive.size(),
                     "binding state: module table sizes disagree");
  HLTS_REQUIRE_INPUT(reg_groups.size() == reg_alive.size(),
                     "binding state: register table sizes disagree");
  Binding b;
  b.compat_ = compat;
  b.op_to_module_.resize(g.num_ops());
  for (std::size_t i = 0; i < module_groups.size(); ++i) {
    const ModuleId m{static_cast<ModuleId::underlying_type>(i)};
    b.module_ops_.push_back(module_groups[i]);
    b.module_alive_.push_back(module_alive[i]);
    for (dfg::OpId op : module_groups[i]) {
      HLTS_REQUIRE_INPUT(op.valid() && op.index() < g.num_ops(),
                         "binding state: module op id out of range");
      HLTS_REQUIRE_INPUT(!b.op_to_module_[op].valid(),
                         "binding state: op listed in two modules");
      b.op_to_module_[op] = m;
    }
  }
  b.var_to_reg_.resize(g.num_vars());
  for (dfg::VarId v : g.var_ids()) b.var_to_reg_[v] = RegId::invalid();
  for (std::size_t i = 0; i < reg_groups.size(); ++i) {
    const RegId r{static_cast<RegId::underlying_type>(i)};
    b.reg_vars_.push_back(reg_groups[i]);
    b.reg_alive_.push_back(reg_alive[i]);
    for (dfg::VarId v : reg_groups[i]) {
      HLTS_REQUIRE_INPUT(v.valid() && v.index() < g.num_vars(),
                         "binding state: register var id out of range");
      HLTS_REQUIRE_INPUT(!b.var_to_reg_[v].valid(),
                         "binding state: variable listed in two registers");
      b.var_to_reg_[v] = r;
    }
  }
  // The structural validator catches everything else (ops bound to dead
  // modules, unassigned register-resident variables, kind mismatches), but
  // it reports via HLTS_REQUIRE (Internal); re-tag as Input -- this state
  // came from a file, not from the pipeline.
  try {
    b.validate(g);
  } catch (const Error& e) {
    throw Error(std::string("binding state invalid: ") + e.what(),
                ErrorKind::Input);
  }
  return b;
}

dfg::OpKind Binding::module_kind(const dfg::Dfg& g, ModuleId m) const {
  HLTS_REQUIRE(module_alive_[m] && !module_ops_[m].empty(),
               "module_kind on dead/empty module");
  return g.op(module_ops_[m].front()).kind;
}

std::vector<ModuleId> Binding::alive_modules() const {
  std::vector<ModuleId> out;
  for (ModuleId m : id_range<ModuleId>(module_ops_.size())) {
    if (module_alive_[m]) out.push_back(m);
  }
  return out;
}

int Binding::num_alive_modules() const {
  return static_cast<int>(alive_modules().size());
}

bool Binding::can_merge_modules(const dfg::Dfg& g, ModuleId a, ModuleId b) const {
  if (a == b) return false;
  if (!module_alive_[a] || !module_alive_[b]) return false;
  return merge_class(g, a) == merge_class(g, b);
}

int Binding::merge_class(const dfg::Dfg& g, ModuleId m) const {
  const dfg::OpKind kind = module_kind(g, m);
  return compat_ == ModuleCompat::ExactKind ? static_cast<int>(kind)
                                            : dfg::module_class(kind);
}

void Binding::merge_modules(const dfg::Dfg& g, ModuleId into, ModuleId from) {
  HLTS_FAILPOINT("alloc.merge");  // before any mutation: a throw leaves `this` intact
  HLTS_REQUIRE(can_merge_modules(g, into, from), "illegal module merger");
  for (dfg::OpId op : module_ops_[from]) {
    op_to_module_[op] = into;
    module_ops_[into].push_back(op);
  }
  module_ops_[from].clear();
  module_alive_[from] = false;
}

void Binding::undo_merge_modules(ModuleId into, ModuleId from,
                                 std::size_t into_old_size) {
  HLTS_REQUIRE(module_alive_[into] && !module_alive_[from],
               "undo_merge_modules: bad tombstone state");
  auto& ops = module_ops_[into];
  HLTS_REQUIRE(into_old_size <= ops.size(), "undo_merge_modules: bad size");
  auto& from_ops = module_ops_[from];
  from_ops.assign(ops.begin() + static_cast<std::ptrdiff_t>(into_old_size),
                  ops.end());
  ops.resize(into_old_size);
  for (dfg::OpId op : from_ops) op_to_module_[op] = from;
  module_alive_[from] = true;
}

std::vector<RegId> Binding::alive_regs() const {
  std::vector<RegId> out;
  for (RegId r : id_range<RegId>(reg_vars_.size())) {
    if (reg_alive_[r]) out.push_back(r);
  }
  return out;
}

int Binding::num_alive_regs() const {
  return static_cast<int>(alive_regs().size());
}

bool Binding::can_merge_regs(RegId a, RegId b) const {
  return a != b && reg_alive_[a] && reg_alive_[b];
}

void Binding::merge_regs(RegId into, RegId from) {
  HLTS_FAILPOINT("alloc.merge");  // before any mutation: a throw leaves `this` intact
  HLTS_REQUIRE(can_merge_regs(into, from), "illegal register merger");
  for (dfg::VarId v : reg_vars_[from]) {
    var_to_reg_[v] = into;
    reg_vars_[into].push_back(v);
  }
  reg_vars_[from].clear();
  reg_alive_[from] = false;
}

void Binding::undo_merge_regs(RegId into, RegId from, std::size_t into_old_size) {
  HLTS_REQUIRE(reg_alive_[into] && !reg_alive_[from],
               "undo_merge_regs: bad tombstone state");
  auto& vars = reg_vars_[into];
  HLTS_REQUIRE(into_old_size <= vars.size(), "undo_merge_regs: bad size");
  auto& from_vars = reg_vars_[from];
  from_vars.assign(vars.begin() + static_cast<std::ptrdiff_t>(into_old_size),
                   vars.end());
  vars.resize(into_old_size);
  for (dfg::VarId v : from_vars) var_to_reg_[v] = from;
  reg_alive_[from] = true;
}

std::string Binding::module_label(const dfg::Dfg& g, ModuleId m) const {
  std::vector<std::string> names;
  bool mixed = false;
  for (dfg::OpId op : module_ops_[m]) {
    names.push_back(g.op(op).name);
    if (g.op(op).kind != module_kind(g, m)) mixed = true;
  }
  // Mixed add/sub(/compare) modules print as the combined ALU "(+-)",
  // matching the paper's notation for CAMAD allocations.
  std::string sym = mixed ? "+-" : dfg::op_symbol(module_kind(g, m));
  return "(" + sym + "): " + join(names, ", ");
}

std::string Binding::reg_label(const dfg::Dfg& g, RegId r) const {
  std::vector<std::string> names;
  for (dfg::VarId v : reg_vars_[r]) names.push_back(g.var(v).name);
  return "R: " + join(names, ", ");
}

void Binding::validate(const dfg::Dfg& g) const {
  HLTS_REQUIRE(op_to_module_.size() == g.num_ops(), "binding: op table size");
  HLTS_REQUIRE(var_to_reg_.size() == g.num_vars(), "binding: var table size");
  for (dfg::OpId op : g.op_ids()) {
    ModuleId m = op_to_module_[op];
    HLTS_REQUIRE(module_alive_[m], "op bound to dead module");
    const auto& ops = module_ops_[m];
    HLTS_REQUIRE(std::find(ops.begin(), ops.end(), op) != ops.end(),
                 "op missing from its module's list");
  }
  for (ModuleId m : id_range<ModuleId>(module_ops_.size())) {
    if (!module_alive_[m]) {
      HLTS_REQUIRE(module_ops_[m].empty(), "tombstone module not empty");
      continue;
    }
    HLTS_REQUIRE(!module_ops_[m].empty(), "alive module with no ops");
    for (dfg::OpId op : module_ops_[m]) {
      HLTS_REQUIRE(
          dfg::ops_module_compatible(g.op(op).kind, module_kind(g, m)),
          "module hosts incompatible operation kinds");
      HLTS_REQUIRE(op_to_module_[op] == m, "module op back-link broken");
    }
  }
  for (dfg::VarId v : g.var_ids()) {
    RegId r = var_to_reg_[v];
    if (!g.needs_register(v)) {
      HLTS_REQUIRE(!r.valid(), "port-direct variable bound to a register");
      continue;
    }
    HLTS_REQUIRE(r.valid() && reg_alive_[r], "variable bound to dead register");
    const auto& vars = reg_vars_[r];
    HLTS_REQUIRE(std::find(vars.begin(), vars.end(), v) != vars.end(),
                 "variable missing from its register's list");
  }
  for (RegId r : id_range<RegId>(reg_vars_.size())) {
    if (!reg_alive_[r]) {
      HLTS_REQUIRE(reg_vars_[r].empty(), "tombstone register not empty");
    } else {
      HLTS_REQUIRE(!reg_vars_[r].empty(), "alive register with no variables");
    }
  }
}

}  // namespace hlts::etpn
