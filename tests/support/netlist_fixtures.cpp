#include "support/netlist_fixtures.hpp"
#include "util/strings.hpp"

#include <iterator>
#include <string>
#include <vector>

namespace hlts::test_support {

using gates::GateId;
using gates::GateKind;
using gates::Netlist;

Netlist random_netlist(Rng& rng, int num_inputs, int num_gates,
                       int num_dffs, bool with_reset) {
  Netlist nl("random");
  std::vector<GateId> pool;
  for (int i = 0; i < num_inputs; ++i) {
    pool.push_back(nl.add_input(with_reset && i == 0
                                    ? std::string("reset")
                                    : hlts::cat("i", std::to_string(i))));
  }
  std::vector<GateId> dffs;
  for (int i = 0; i < num_dffs; ++i) {
    dffs.push_back(nl.add_dff(hlts::cat("r", std::to_string(i))));
    pool.push_back(dffs.back());
  }
  const GateKind kinds[] = {GateKind::And,  GateKind::Or,  GateKind::Nand,
                            GateKind::Nor,  GateKind::Xor, GateKind::Xnor,
                            GateKind::Mux,  GateKind::Not, GateKind::Buf};
  auto pick = [&] { return pool[static_cast<std::size_t>(rng.next_below(pool.size()))]; };
  for (int i = 0; i < num_gates; ++i) {
    const GateKind kind = kinds[static_cast<std::size_t>(rng.next_below(std::size(kinds)))];
    std::vector<GateId> in;
    // gate_arity returns -1 for the variadic kinds (>= 2 inputs required).
    int arity = gates::gate_arity(kind);
    if (arity < 0) arity = 2 + static_cast<int>(rng.next_below(2));
    for (int a = 0; a < arity; ++a) in.push_back(pick());
    pool.push_back(nl.add_gate(kind, in));
  }
  for (GateId d : dffs) nl.connect_dff(d, pick());
  // Observe the tail of the pool so fault cones reach primary outputs.
  for (int i = 0; i < 3 && i < static_cast<int>(pool.size()); ++i) {
    nl.add_output(pool[pool.size() - 1 - i], hlts::cat("o", std::to_string(i)));
  }
  return nl;
}

}  // namespace hlts::test_support
