// GateTable: a netlist's structure as flat arrays, for the inner loops of
// the time-frame engines (atpg::TimeFramePodem, TimeFrameCnf's cone walk).
//
// A Netlist keeps one Gate per gate with its own name and its own input and
// fanout vectors.  A walk over it loads a Gate, chases a vector pointer, and
// -- to learn whether a fanout lands in the next time frame of an unrolled
// model -- loads the fanout's Gate as well.  The table packs the same
// structure into contiguous arrays, built once and never changed:
//  - a kind byte per gate;
//  - the inputs in CSR form (compressed sparse rows: one offset per gate
//    into one shared array), in pin order;
//  - the fanouts in CSR form, in Gate::fanouts order, each entry the
//    reading gate's index with kCrossing set when that gate is a DFF.  A
//    DFF reads its input's value of the previous frame, so in an unrolled
//    model such an edge crosses from frame t into frame t + 1.
// Indices are the GateId values of the netlist.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gates/netlist.hpp"

namespace hlts::gates {

class GateTable {
 public:
  /// Set on a fanout entry whose reading gate is a DFF.
  static constexpr std::uint32_t kCrossing = std::uint32_t{1} << 31;

  explicit GateTable(const Netlist& nl);

  [[nodiscard]] std::size_t num_gates() const { return kinds_.size(); }
  [[nodiscard]] GateKind kind(std::uint32_t g) const { return kinds_[g]; }
  [[nodiscard]] std::span<const std::uint32_t> inputs(std::uint32_t g) const {
    return {inputs_.data() + input_begin_[g],
            inputs_.data() + input_begin_[g + 1]};
  }
  [[nodiscard]] std::span<const std::uint32_t> fanouts(std::uint32_t g) const {
    return {fanouts_.data() + fanout_begin_[g],
            fanouts_.data() + fanout_begin_[g + 1]};
  }

  /// The reading gate of a fanout entry.
  [[nodiscard]] static std::uint32_t target(std::uint32_t fanout) {
    return fanout & ~kCrossing;
  }
  /// 1 when the fanout entry lands in the next frame, else 0.
  [[nodiscard]] static std::uint32_t crossing(std::uint32_t fanout) {
    return fanout >> 31;
  }

 private:
  std::vector<GateKind> kinds_;
  std::vector<std::uint32_t> input_begin_;   ///< num_gates + 1 offsets
  std::vector<std::uint32_t> inputs_;
  std::vector<std::uint32_t> fanout_begin_;  ///< num_gates + 1 offsets
  std::vector<std::uint32_t> fanouts_;       ///< index | kCrossing
};

}  // namespace hlts::gates
