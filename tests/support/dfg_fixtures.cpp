#include "support/dfg_fixtures.hpp"

#include <iterator>
#include <vector>

#include "util/rng.hpp"

namespace hlts::test_support {

dfg::Dfg random_dfg(std::uint64_t seed, int num_inputs, int num_ops) {
  Rng rng(seed);
  dfg::Dfg g("rand" + std::to_string(seed));
  std::vector<dfg::VarId> pool;
  for (int i = 0; i < num_inputs; ++i) {
    pool.push_back(g.add_input("i" + std::to_string(i)));
  }
  const dfg::OpKind kinds[] = {
      dfg::OpKind::Add, dfg::OpKind::Add, dfg::OpKind::Sub, dfg::OpKind::Sub,
      dfg::OpKind::Mul, dfg::OpKind::And, dfg::OpKind::Or,  dfg::OpKind::Xor,
      dfg::OpKind::Less};
  std::vector<dfg::VarId> produced;
  for (int i = 0; i < num_ops; ++i) {
    const dfg::OpKind kind = kinds[rng.next_below(std::size(kinds))];
    std::vector<dfg::VarId> ins;
    for (int j = 0; j < dfg::op_arity(kind); ++j) {
      ins.push_back(pool[rng.next_below(pool.size())]);
    }
    dfg::OpId op = g.add_op_new_var("N" + std::to_string(i), kind, ins,
                                    "v" + std::to_string(i));
    pool.push_back(g.op(op).output);
    produced.push_back(g.op(op).output);
  }
  for (dfg::VarId v : produced) {
    if (g.var(v).uses.empty()) {
      g.mark_output(v, rng.next_bool(0.5));
    }
  }
  g.validate();
  return g;
}

std::map<std::string, std::uint64_t> interpret(
    const dfg::Dfg& g, const std::map<std::string, std::uint64_t>& inputs,
    int bits) {
  const std::uint64_t mask = bits >= 64 ? ~std::uint64_t{0}
                                        : (std::uint64_t{1} << bits) - 1;
  std::map<std::string, std::uint64_t> env;
  for (const auto& [k, v] : inputs) env[k] = v & mask;
  for (dfg::OpId op : g.topo_order()) {
    const dfg::Operation& o = g.op(op);
    auto val = [&](dfg::VarId v) { return env.at(g.var(v).name); };
    std::uint64_t a = val(o.inputs[0]);
    std::uint64_t b = o.inputs.size() > 1 ? val(o.inputs[1]) : 0;
    std::uint64_t r = 0;
    switch (o.kind) {
      case dfg::OpKind::Add: r = a + b; break;
      case dfg::OpKind::Sub: r = a - b; break;
      case dfg::OpKind::Mul: r = a * b; break;
      case dfg::OpKind::Div: r = b == 0 ? mask : a / b; break;
      case dfg::OpKind::Less: r = a < b ? 1 : 0; break;
      case dfg::OpKind::Greater: r = a > b ? 1 : 0; break;
      case dfg::OpKind::Equal: r = a == b ? 1 : 0; break;
      case dfg::OpKind::And: r = a & b; break;
      case dfg::OpKind::Or: r = a | b; break;
      case dfg::OpKind::Xor: r = a ^ b; break;
      case dfg::OpKind::Not: r = ~a; break;
      case dfg::OpKind::ShiftLeft: r = a << 1; break;
      case dfg::OpKind::ShiftRight: r = a >> 1; break;
      case dfg::OpKind::Move: r = a; break;
    }
    env[g.var(o.output).name] = r & mask;
  }
  return env;
}

}  // namespace hlts::test_support
