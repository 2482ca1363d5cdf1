// Gate-level netlist: the substrate the ATPG engine works on.
//
// The paper evaluated its synthesized data paths with a commercial
// (MentorGraphics) gate-level ATPG; we elaborate the RTL designs into this
// netlist and run the in-repo ATPG instead (DESIGN.md §2).
//
// Primitives: standard cells (BUF/NOT/AND/OR/NAND/NOR/XOR/XNOR), a 2:1 MUX
// (inputs: sel, a, b -> sel ? b : a), D flip-flops with synchronous reset-
// to-zero, constants, primary inputs and primary outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.hpp"

namespace hlts::gates {

struct GateTag {};
using GateId = Id<GateTag>;

enum class GateKind : std::uint8_t {
  Input,   ///< primary input (no gate inputs)
  Output,  ///< primary output (one input; transparent)
  Const0,
  Const1,
  Buf,
  Not,
  And,
  Or,
  Nand,
  Nor,
  Xor,
  Xnor,
  Mux,  ///< inputs[0]=sel, inputs[1]=a (sel==0), inputs[2]=b (sel==1)
  Dff,  ///< inputs[0]=d; output is the state; synchronous reset to 0
};

[[nodiscard]] const char* gate_kind_name(GateKind kind);
/// Number of inputs the kind requires; -1 for variadic (And/Or/Nand/Nor
/// accept >= 2, Xor/Xnor exactly 2).
[[nodiscard]] int gate_arity(GateKind kind);

struct Gate {
  GateKind kind = GateKind::Buf;
  std::string name;
  std::vector<GateId> inputs;
  std::vector<GateId> fanouts;  ///< gates reading this gate's output
};

class Netlist {
 public:
  explicit Netlist(std::string name = "netlist") : name_(std::move(name)) {}

  /// --- construction -------------------------------------------------------

  GateId add_input(const std::string& name);
  GateId add_output(GateId src, const std::string& name);
  GateId add_gate(GateKind kind, const std::vector<GateId>& inputs,
                  const std::string& name = "");
  /// Creates a DFF whose data input is connected later (registers in a data
  /// path form cycles through combinational logic).
  GateId add_dff(const std::string& name = "");
  void connect_dff(GateId dff, GateId d);

  [[nodiscard]] GateId const0();
  [[nodiscard]] GateId const1();

  /// --- queries ------------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_gates() const { return gates_.size(); }
  [[nodiscard]] const Gate& gate(GateId id) const { return gates_[id]; }
  [[nodiscard]] IdRange<GateId> gate_ids() const {
    return id_range<GateId>(gates_.size());
  }
  [[nodiscard]] const std::vector<GateId>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<GateId>& outputs() const { return outputs_; }
  [[nodiscard]] const std::vector<GateId>& dffs() const { return dffs_; }

  /// Topological order of the combinational gates (DFF/Input/Const outputs
  /// are sources; DFF data inputs and Outputs are sinks).  Throws on
  /// combinational cycles.  Cached after the first call; construction after
  /// levelization invalidates the cache.
  [[nodiscard]] const std::vector<GateId>& levelized() const;

  struct Stats {
    std::size_t gates = 0;        ///< total, including IO/const
    std::size_t combinational = 0;
    std::size_t flip_flops = 0;
    std::size_t primary_inputs = 0;
    std::size_t primary_outputs = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Every DFF connected, arities correct, no combinational cycles.
  void validate() const;

 private:
  std::string name_;
  IndexVec<GateId, Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> dffs_;
  GateId const0_;
  GateId const1_;
  mutable std::vector<GateId> levelized_;
};

}  // namespace hlts::gates
