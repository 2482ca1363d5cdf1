#include "workload/generator.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace hlts::workload {

using dfg::Dfg;
using dfg::OpKind;
using dfg::VarId;

namespace {

/// Rounds a density against a population, clamped to it.
int scaled_count(double density, int population) {
  const int n = static_cast<int>(
      std::llround(density * static_cast<double>(population)));
  if (n < 0) return 0;
  return n > population ? population : n;
}

void check_fraction(double f, const char* what) {
  HLTS_REQUIRE_INPUT(f >= 0.0 && f <= 1.0,
                     std::string("workload shape: ") + what +
                         " must be in [0, 1]");
}

}  // namespace

dfg::Dfg generate(std::uint64_t seed, const DfgShape& shape) {
  HLTS_REQUIRE_INPUT(shape.ops >= 1, "workload shape: ops must be >= 1");
  HLTS_REQUIRE_INPUT(shape.depth >= 1, "workload shape: depth must be >= 1");
  HLTS_REQUIRE_INPUT(shape.fanout >= 1, "workload shape: fanout must be >= 1");
  HLTS_REQUIRE_INPUT(shape.inputs >= 1, "workload shape: inputs must be >= 1");
  check_fraction(shape.loop_density, "loop_density");
  check_fraction(shape.self_loop_density, "self_loop_density");
  check_fraction(shape.mul_fraction, "mul_fraction");
  check_fraction(shape.div_fraction, "div_fraction");
  check_fraction(shape.cmp_fraction, "cmp_fraction");
  check_fraction(shape.logic_fraction, "logic_fraction");
  check_fraction(shape.memory_access_density, "memory_access_density");
  HLTS_REQUIRE_INPUT(shape.mul_fraction + shape.div_fraction +
                             shape.cmp_fraction + shape.logic_fraction <=
                         1.0,
                     "workload shape: arithmetic-mix fractions must sum"
                     " to at most 1");
  HLTS_REQUIRE_INPUT(shape.memories >= 0,
                     "workload shape: memories must be >= 0");
  HLTS_REQUIRE_INPUT(shape.memories == 0 || shape.memory_ports >= 1,
                     "workload shape: memory_ports must be >= 1");

  Rng rng(seed);
  Dfg g(cat("gen-", std::to_string(seed), "-", std::to_string(shape.ops)));

  // Loop-state updates are carved out of the op budget; the rest is the
  // layered body.
  const int num_states = scaled_count(shape.loop_density, shape.ops);
  const int num_self = scaled_count(shape.self_loop_density, num_states);
  const int body_ops = shape.ops - num_states;

  // Primary inputs first (data, then loop state, then memory-port tokens)
  // so every id is a pure function of the shape.
  std::vector<VarId> data_inputs;
  data_inputs.reserve(static_cast<std::size_t>(shape.inputs));
  for (int i = 0; i < shape.inputs; ++i) {
    data_inputs.push_back(g.add_input(cat("in", std::to_string(i))));
  }
  std::vector<VarId> state_inputs;
  state_inputs.reserve(static_cast<std::size_t>(num_states));
  for (int k = 0; k < num_states; ++k) {
    state_inputs.push_back(g.add_input(cat("s", std::to_string(k))));
  }
  // port_token[m][p]: the variable the *next* access to memory m, port p
  // must consume -- initially the memory's port input, afterwards the
  // output of the previous access.  Threading it serializes the port.
  std::vector<std::vector<VarId>> port_token(
      static_cast<std::size_t>(shape.memories));
  for (int m = 0; m < shape.memories; ++m) {
    for (int p = 0; p < shape.memory_ports; ++p) {
      port_token[static_cast<std::size_t>(m)].push_back(g.add_input(
          cat("m", std::to_string(m), "p", std::to_string(p))));
    }
  }

  // Operand pool: data/state inputs are always eligible; body outputs are
  // eligible for `fanout` layers after their own.
  std::vector<std::vector<VarId>> layer_vars(
      static_cast<std::size_t>(shape.depth));
  std::vector<VarId> pi_pool = data_inputs;
  pi_pool.insert(pi_pool.end(), state_inputs.begin(), state_inputs.end());

  auto pick_operand = [&](int layer) -> VarId {
    const int first = layer - shape.fanout < 0 ? 0 : layer - shape.fanout;
    std::size_t count = pi_pool.size();
    for (int l = first; l < layer; ++l) {
      count += layer_vars[static_cast<std::size_t>(l)].size();
    }
    std::uint64_t idx = rng.next_below(count);
    if (idx < pi_pool.size()) return pi_pool[idx];
    idx -= pi_pool.size();
    for (int l = first; l < layer; ++l) {
      const auto& lv = layer_vars[static_cast<std::size_t>(l)];
      if (idx < lv.size()) return lv[idx];
      idx -= lv.size();
    }
    return pi_pool.back();  // unreachable
  };

  auto pick_kind = [&]() -> OpKind {
    const double r = rng.next_double();
    double edge = shape.mul_fraction;
    if (r < edge) return OpKind::Mul;
    edge += shape.div_fraction;
    if (r < edge) return OpKind::Div;
    edge += shape.cmp_fraction;
    if (r < edge) {
      static constexpr OpKind kCmp[] = {OpKind::Less, OpKind::Greater,
                                        OpKind::Equal};
      return kCmp[rng.next_below(3)];
    }
    edge += shape.logic_fraction;
    if (r < edge) {
      static constexpr OpKind kLogic[] = {OpKind::And, OpKind::Or,
                                          OpKind::Xor, OpKind::Not};
      return kLogic[rng.next_below(4)];
    }
    return rng.next_bool() ? OpKind::Add : OpKind::Sub;
  };

  // The layered body.  Ops spread evenly over the layers (earlier layers
  // absorb the remainder); the first op of every populated layer consumes
  // the previous layer's first-op output (`chain`), so the critical path
  // tracks the number of populated layers.  A random previous-layer var is
  // NOT enough: layers are emission batches, not depth levels, and a random
  // pick usually lands on a shallow var, collapsing the critical path into
  // a random walk.
  int emitted = 0;
  VarId chain{};
  for (int layer = 0; layer < shape.depth; ++layer) {
    int quota = body_ops / shape.depth;
    if (layer < body_ops % shape.depth) ++quota;
    for (int slot = 0; slot < quota; ++slot) {
      OpKind kind = pick_kind();
      std::vector<VarId> ins;
      bool is_access = false;
      int mem = 0;
      int port = 0;
      if (shape.memories > 0 && shape.memory_access_density > 0.0 &&
          rng.next_bool(shape.memory_access_density)) {
        // A memory access consumes the port token, so it needs two
        // operands; unary kinds widen to an add.
        is_access = true;
        if (dfg::op_arity(kind) == 1) kind = OpKind::Add;
        mem = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(shape.memories)));
        port = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(shape.memory_ports)));
        ins.push_back(port_token[static_cast<std::size_t>(mem)]
                                [static_cast<std::size_t>(port)]);
        if (slot == 0 && chain.valid()) ins.push_back(chain);
      } else if (slot == 0 && chain.valid()) {
        // The depth-chaining edge.
        ins.push_back(chain);
      } else {
        ins.push_back(pick_operand(layer));
      }
      while (static_cast<int>(ins.size()) < dfg::op_arity(kind)) {
        ins.push_back(pick_operand(layer));
      }
      if (dfg::op_arity(kind) == 1) ins.resize(1);
      const std::string idx = std::to_string(emitted);
      g.add_op_new_var("n" + idx, kind, ins, "v" + idx);
      const VarId out = *g.find_var("v" + idx);
      layer_vars[static_cast<std::size_t>(layer)].push_back(out);
      if (is_access) {
        port_token[static_cast<std::size_t>(mem)]
                  [static_cast<std::size_t>(port)] = out;
      }
      if (slot == 0) chain = out;
      ++emitted;
    }
  }

  // Loop-state updates: sK -> sK_n, registered primary outputs (the
  // Diffeq u/u1 pattern).  The first `num_self` read their own state
  // directly; the rest read a body value, so the loop threads through the
  // graph before closing.
  for (int k = 0; k < num_states; ++k) {
    const OpKind kind = rng.next_bool() ? OpKind::Add : OpKind::Sub;
    std::vector<VarId> ins;
    if (k < num_self || body_ops == 0) {
      ins.push_back(state_inputs[static_cast<std::size_t>(k)]);
    } else {
      ins.push_back(pick_operand(shape.depth));
    }
    ins.push_back(pick_operand(shape.depth));
    const std::string name = cat("s", std::to_string(k), "_n");
    g.add_op_new_var(cat("u", std::to_string(k)), kind, ins, name);
    g.mark_output(*g.find_var(name), /*registered=*/true);
  }

  // Every dangling value streams to an output port (unregistered), so the
  // graph computes everything it builds.
  for (const VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    if (!var.is_primary_input && !var.is_primary_output && var.uses.empty() &&
        var.def.valid()) {
      g.mark_output(v, /*registered=*/false);
    }
  }

  g.validate();
  return g;
}

std::string tokens(const dfg::Dfg& g) {
  return util::json_dump(core::dfg_to_json(g));
}

}  // namespace hlts::workload
