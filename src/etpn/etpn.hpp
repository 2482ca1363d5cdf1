// ETPN: the Extended Timed Petri Net design representation.
//
// The paper's ETPN pairs the data path graph with a timed Petri net control
// part; the two are related through the control places gating data
// transfers.  In this implementation the design is held as (DFG, schedule,
// binding) and the data path is *derived* from it whenever testability
// analysis or cost estimation needs it.  The control part is not built:
// derived from a schedule it is a chain of one unit-delay place per control
// step, so its critical path -- the paper's execution time E -- is
// Schedule::length(), which Algorithm 1 and the flows read directly.  Each
// data-path arc keeps the steps in which its transfer is active, the one
// link to the control part the algorithms read.
//
// `Etpn`, built by build_data_path, is that data path with the node of
// each alive module, register and port.
#pragma once

#include <string>

#include "dfg/dfg.hpp"
#include "etpn/binding.hpp"
#include "etpn/datapath.hpp"
#include "sched/schedule.hpp"
#include "util/ids.hpp"

namespace hlts::etpn {

/// The materialized data path of a design and the data-path node of each
/// alive module, register and port.  It has no control part.
struct Etpn {
  DataPath data_path;

  IndexVec<ModuleId, DpNodeId> module_node;
  IndexVec<RegId, DpNodeId> reg_node;
  IndexVec<dfg::VarId, DpNodeId> inport_node;   // valid for PIs
  IndexVec<dfg::VarId, DpNodeId> outport_node;  // valid for POs
};

/// Builds the data path of a scheduled, bound design.
///
/// One InPort per primary input (feeding its register in step 0), one node
/// per alive register and module, one OutPort per primary output; arcs for
/// every operand fetch (register -> module port, active in the op's step),
/// every result store (module -> register), and the output-port connections
/// (register -> OutPort for registered POs, module -> OutPort for
/// port-direct POs such as condition signals).  Transfers between the same
/// two ports share one arc, whose step set collects their steps.  The
/// graph is laid out in one counted pass (DataPath::dense).
[[nodiscard]] Etpn build_data_path(const dfg::Dfg& g, const sched::Schedule& s,
                                   const Binding& b);

/// The label of a data-path node under binding `b`: "R: a, c" for a
/// register, "(+): N1, N2" for a module (Binding::reg_label /
/// module_label), "in:x" / "out:y" for ports.  A node of a group that is
/// dead or unknown in `b` reads "?".
[[nodiscard]] std::string node_label(const dfg::Dfg& g, const Binding& b,
                                     const DpNode& node);

}  // namespace hlts::etpn
