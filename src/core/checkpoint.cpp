#include "core/checkpoint.hpp"

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/resched.hpp"
#include "util/error.hpp"

namespace hlts::core {

namespace {

using util::JsonValue;

/// Input-kind failure with a uniform prefix, so journal readers can report
/// "which file" + "what was wrong with it".
[[noreturn]] void bad(const std::string& what) {
  throw Error("checkpoint document: " + what, ErrorKind::Input);
}

const JsonValue& member(const JsonValue& v, const char* key) {
  if (!v.is_object()) bad(std::string("expected object holding '") + key + "'");
  const JsonValue* m = v.find(key);
  if (m == nullptr) bad(std::string("missing member '") + key + "'");
  return *m;
}

std::int64_t member_int(const JsonValue& v, const char* key) {
  const JsonValue& m = member(v, key);
  if (!m.is_int()) bad(std::string("member '") + key + "' must be an integer");
  return m.as_int();
}

bool member_bool(const JsonValue& v, const char* key) {
  const JsonValue& m = member(v, key);
  if (!m.is_bool()) bad(std::string("member '") + key + "' must be a bool");
  return m.as_bool();
}

std::string member_string(const JsonValue& v, const char* key) {
  const JsonValue& m = member(v, key);
  if (!m.is_string()) bad(std::string("member '") + key + "' must be a string");
  return m.as_string();
}

const JsonValue::Array& member_array(const JsonValue& v, const char* key) {
  const JsonValue& m = member(v, key);
  if (!m.is_array()) bad(std::string("member '") + key + "' must be an array");
  return m.as_array();
}

/// Ids serialized as their dense indices; `limit` is the table size they
/// must index into.
template <typename IdT>
std::vector<IdT> id_array(const JsonValue& v, const char* key,
                          std::size_t limit) {
  std::vector<IdT> out;
  for (const JsonValue& e : member_array(v, key)) {
    if (!e.is_int() || e.as_int() < 0 ||
        static_cast<std::uint64_t>(e.as_int()) >= limit) {
      bad(std::string("member '") + key + "' holds an out-of-range id");
    }
    out.push_back(IdT{static_cast<typename IdT::underlying_type>(e.as_int())});
  }
  return out;
}

JsonValue int_array(const std::vector<std::int64_t>& xs) {
  JsonValue::Array a;
  a.reserve(xs.size());
  for (std::int64_t x : xs) a.push_back(JsonValue::make_int(x));
  return JsonValue::make_array(std::move(a));
}

dfg::OpKind op_kind_from_name(const std::string& name) {
  using dfg::OpKind;
  for (OpKind k :
       {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div, OpKind::Less,
        OpKind::Greater, OpKind::Equal, OpKind::And, OpKind::Or, OpKind::Xor,
        OpKind::Not, OpKind::ShiftLeft, OpKind::ShiftRight, OpKind::Move}) {
    if (name == dfg::op_name(k)) return k;
  }
  bad("unknown operation kind '" + name + "'");
}

}  // namespace

// --- DFG --------------------------------------------------------------------

util::JsonValue dfg_to_json(const dfg::Dfg& g) {
  JsonValue::Array vars;
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    vars.push_back(JsonValue::make_object({
        {"name", JsonValue::make_string(var.name)},
        {"pi", JsonValue::make_bool(var.is_primary_input)},
        {"po", JsonValue::make_bool(var.is_primary_output)},
        {"po_reg", JsonValue::make_bool(var.po_registered)},
    }));
  }
  JsonValue::Array ops;
  for (dfg::OpId op : g.op_ids()) {
    const dfg::Operation& o = g.op(op);
    std::vector<std::int64_t> inputs;
    for (dfg::VarId in : o.inputs) inputs.push_back(in.index());
    ops.push_back(JsonValue::make_object({
        {"name", JsonValue::make_string(o.name)},
        {"kind", JsonValue::make_string(dfg::op_name(o.kind))},
        {"inputs", int_array(inputs)},
        {"output", JsonValue::make_int(o.output.index())},
    }));
  }
  return JsonValue::make_object({
      {"name", JsonValue::make_string(g.name())},
      {"vars", JsonValue::make_array(std::move(vars))},
      {"ops", JsonValue::make_array(std::move(ops))},
  });
}

dfg::Dfg dfg_from_json(const util::JsonValue& v) {
  dfg::Dfg g(member_string(v, "name"));
  const JsonValue::Array& vars = member_array(v, "vars");
  for (const JsonValue& var : vars) {
    const std::string name = member_string(var, "name");
    if (member_bool(var, "pi")) {
      g.add_input(name);
    } else {
      g.add_variable(name);
    }
  }
  for (const JsonValue& op : member_array(v, "ops")) {
    const dfg::OpKind kind = op_kind_from_name(member_string(op, "kind"));
    const std::vector<dfg::VarId> inputs =
        id_array<dfg::VarId>(op, "inputs", g.num_vars());
    const std::int64_t out = member_int(op, "output");
    if (out < 0 || static_cast<std::size_t>(out) >= g.num_vars()) {
      bad("op output id out of range");
    }
    try {
      g.add_op(member_string(op, "name"), kind, inputs,
               dfg::VarId{static_cast<dfg::VarId::underlying_type>(out)});
    } catch (const Error& e) {
      bad(std::string("inconsistent op: ") + e.what());
    }
  }
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (member_bool(vars[i], "po")) {
      g.mark_output(dfg::VarId{static_cast<dfg::VarId::underlying_type>(i)},
                    member_bool(vars[i], "po_reg"));
    }
  }
  try {
    g.validate();
  } catch (const Error& e) {
    bad(std::string("graph invalid: ") + e.what());
  }
  return g;
}

// --- AlgorithmOptions --------------------------------------------------------

util::JsonValue params_to_json(const AlgorithmOptions& p) {
  return JsonValue::make_object({
      {"bits", JsonValue::make_int(p.bits)},
      {"k", JsonValue::make_int(p.k)},
      {"alpha", JsonValue::make_number(p.alpha)},
      {"beta", JsonValue::make_number(p.beta)},
      {"max_latency", JsonValue::make_int(p.max_latency)},
      {"num_threads", JsonValue::make_int(p.num_threads)},
      {"trial_cache", JsonValue::make_bool(p.trial_cache)},
      {"max_iterations", JsonValue::make_int(p.max_iterations)},
      {"memory_budget_bytes",
       JsonValue::make_int(static_cast<std::int64_t>(p.memory_budget_bytes))},
      {"audit", JsonValue::make_bool(p.audit)},
      {"atpg_backend", JsonValue::make_string(p.atpg_backend)},
      {"sat_frames", JsonValue::make_int(p.sat_frames)},
      {"sat_conflict_budget", JsonValue::make_int(p.sat_conflict_budget)},
  });
}

AlgorithmOptions params_from_json(const util::JsonValue& v) {
  AlgorithmOptions p;
  const std::int64_t bits = member_int(v, "bits");
  const std::int64_t k = member_int(v, "k");
  const std::int64_t max_iter = member_int(v, "max_iterations");
  const std::int64_t mem = member_int(v, "memory_budget_bytes");
  if (bits <= 0 || bits > 1 << 16) bad("bits out of range");
  if (k < 1) bad("k out of range");
  if (max_iter < 0) bad("max_iterations out of range");
  if (mem < 0) bad("memory_budget_bytes negative");
  const JsonValue& alpha = member(v, "alpha");
  const JsonValue& beta = member(v, "beta");
  if (!alpha.is_number() || !beta.is_number()) bad("alpha/beta must be numbers");
  p.bits = static_cast<int>(bits);
  p.k = static_cast<int>(k);
  p.alpha = alpha.as_double();
  p.beta = beta.as_double();
  p.max_latency = static_cast<int>(member_int(v, "max_latency"));
  p.num_threads = static_cast<int>(member_int(v, "num_threads"));
  if (p.max_latency < 0) bad("max_latency negative");
  if (p.num_threads < 0) bad("num_threads negative");
  p.trial_cache = member_bool(v, "trial_cache");
  p.max_iterations = static_cast<int>(max_iter);
  p.memory_budget_bytes = static_cast<std::size_t>(mem);
  p.audit = member_bool(v, "audit");
  // Members this reader does not know are ignored, so documents from older
  // builds -- e.g. ones carrying the retired "incremental" flag -- parse.
  // ATPG backend knobs postdate the journal format; absent members keep
  // their defaults so pre-existing journals stay readable.
  if (const JsonValue* m = v.find("atpg_backend")) {
    if (!m->is_string()) bad("member 'atpg_backend' must be a string");
    p.atpg_backend = m->as_string();
  }
  if (const JsonValue* m = v.find("sat_frames")) {
    if (!m->is_int()) bad("member 'sat_frames' must be an integer");
    if (m->as_int() < 0) bad("sat_frames negative");
    p.sat_frames = static_cast<int>(m->as_int());
  }
  if (const JsonValue* m = v.find("sat_conflict_budget")) {
    if (!m->is_int()) bad("member 'sat_conflict_budget' must be an integer");
    if (m->as_int() < 0) bad("sat_conflict_budget negative");
    p.sat_conflict_budget = m->as_int();
  }
  return p;
}

// --- Checkpoint --------------------------------------------------------------

util::JsonValue checkpoint_to_json(const Checkpoint& c) {
  std::vector<std::int64_t> steps;
  steps.reserve(c.schedule.num_ops());
  for (dfg::OpId op : id_range<dfg::OpId>(c.schedule.num_ops())) {
    steps.push_back(c.schedule.step(op));
  }
  const etpn::Binding& b = c.binding;
  JsonValue::Array modules;
  for (etpn::ModuleId m : id_range<etpn::ModuleId>(b.num_module_slots())) {
    std::vector<std::int64_t> ops;
    for (dfg::OpId op : b.module_ops(m)) ops.push_back(op.index());
    modules.push_back(JsonValue::make_object({
        {"alive", JsonValue::make_bool(b.module_alive(m))},
        {"ops", int_array(ops)},
    }));
  }
  JsonValue::Array regs;
  for (etpn::RegId r : id_range<etpn::RegId>(b.num_reg_slots())) {
    std::vector<std::int64_t> vars;
    for (dfg::VarId var : b.reg_vars(r)) vars.push_back(var.index());
    regs.push_back(JsonValue::make_object({
        {"alive", JsonValue::make_bool(b.reg_alive(r))},
        {"vars", int_array(vars)},
    }));
  }
  return JsonValue::make_object({
      {"iteration", JsonValue::make_int(c.iteration)},
      {"compat",
       JsonValue::make_string(b.module_compat() == etpn::ModuleCompat::AluClass
                                  ? "alu"
                                  : "exact")},
      {"schedule", int_array(steps)},
      {"modules", JsonValue::make_array(std::move(modules))},
      {"regs", JsonValue::make_array(std::move(regs))},
  });
}

Checkpoint checkpoint_from_json(const util::JsonValue& v, const dfg::Dfg& g) {
  Checkpoint c;
  const std::int64_t iteration = member_int(v, "iteration");
  if (iteration < 0 || iteration > std::numeric_limits<int>::max()) {
    bad("iteration out of range");
  }
  c.iteration = static_cast<int>(iteration);

  const std::string compat_name = member_string(v, "compat");
  etpn::ModuleCompat compat;
  if (compat_name == "exact") {
    compat = etpn::ModuleCompat::ExactKind;
  } else if (compat_name == "alu") {
    compat = etpn::ModuleCompat::AluClass;
  } else {
    bad("unknown module compat '" + compat_name + "'");
  }

  const JsonValue::Array& steps = member_array(v, "schedule");
  if (steps.size() != g.num_ops()) bad("schedule length != number of ops");
  c.schedule = sched::Schedule(g.num_ops());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (!steps[i].is_int() || steps[i].as_int() < 1 ||
        steps[i].as_int() > std::numeric_limits<int>::max()) {
      bad("schedule step out of range");
    }
    c.schedule.set_step(dfg::OpId{static_cast<dfg::OpId::underlying_type>(i)},
                        static_cast<int>(steps[i].as_int()));
  }
  if (!c.schedule.respects_data_deps(g)) {
    bad("schedule violates data dependences");
  }

  const JsonValue::Array& modules = member_array(v, "modules");
  std::vector<std::vector<dfg::OpId>> module_groups;
  std::vector<bool> module_alive;
  for (const JsonValue& m : modules) {
    module_groups.push_back(id_array<dfg::OpId>(m, "ops", g.num_ops()));
    module_alive.push_back(member_bool(m, "alive"));
  }
  const JsonValue::Array& regs = member_array(v, "regs");
  std::vector<std::vector<dfg::VarId>> reg_groups;
  std::vector<bool> reg_alive;
  for (const JsonValue& r : regs) {
    reg_groups.push_back(id_array<dfg::VarId>(r, "vars", g.num_vars()));
    reg_alive.push_back(member_bool(r, "alive"));
  }
  // from_groups validates the full binding invariant set and throws
  // Error(Input) itself on inconsistent state.
  c.binding = etpn::Binding::from_groups(g, compat, module_groups, module_alive,
                                         reg_groups, reg_alive);
  if (!schedule_respects_binding(g, c.binding, c.schedule)) {
    bad("schedule shares a module/register within one control step");
  }
  return c;
}

}  // namespace hlts::core
