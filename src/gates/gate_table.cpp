#include "gates/gate_table.hpp"

#include "util/error.hpp"

namespace hlts::gates {

GateTable::GateTable(const Netlist& nl) {
  HLTS_REQUIRE(nl.num_gates() < kCrossing, "gate table: netlist too large");
  kinds_.reserve(nl.num_gates());
  input_begin_.reserve(nl.num_gates() + 1);
  fanout_begin_.reserve(nl.num_gates() + 1);
  input_begin_.push_back(0);
  fanout_begin_.push_back(0);
  for (const GateId g : nl.gate_ids()) {
    const Gate& gate = nl.gate(g);
    kinds_.push_back(gate.kind);
    for (const GateId in : gate.inputs) inputs_.push_back(in.value());
    for (const GateId fo : gate.fanouts) {
      fanouts_.push_back(fo.value() |
                         (nl.gate(fo).kind == GateKind::Dff ? kCrossing : 0));
    }
    input_begin_.push_back(static_cast<std::uint32_t>(inputs_.size()));
    fanout_begin_.push_back(static_cast<std::uint32_t>(fanouts_.size()));
  }
}

}  // namespace hlts::gates
