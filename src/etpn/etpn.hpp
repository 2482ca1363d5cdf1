// ETPN: the Extended Timed Petri Net design representation.
//
// Combines the data path graph with the timed Petri net control part; the
// two are related through the control places gating data transfers and the
// condition signals feeding guarded transitions.  In this implementation
// the ETPN is *derived*: the synthesis algorithms maintain (DFG, schedule,
// binding) and materialize the ETPN view whenever testability analysis or
// cost estimation needs it.
//
// Algorithm 1 reads only the data path (testability, cost, register
// distances, candidate ranking), so the data path with its node maps is a
// type of its own, `Etpn`, built by build_data_path; `EtpnWithControl`
// adds the control part, built by build_etpn.
#pragma once

#include <string>
#include <vector>

#include "dfg/dfg.hpp"
#include "etpn/binding.hpp"
#include "etpn/datapath.hpp"
#include "petri/petri.hpp"
#include "sched/schedule.hpp"
#include "util/ids.hpp"

namespace hlts::etpn {

struct EtpnOptions {
  /// When true and the DFG produces a comparison condition output, the
  /// control part loops back to the first step under a guarded transition
  /// (modelling e.g. Diffeq's `while (x < a)` iteration) with a guarded
  /// exit to a final place.
  bool loop_on_condition = false;
};

/// The materialized data path of a design and the data-path node of each
/// alive module, register and port.  It has no control part.
struct Etpn {
  DataPath data_path;

  IndexVec<ModuleId, DpNodeId> module_node;
  IndexVec<RegId, DpNodeId> reg_node;
  IndexVec<dfg::VarId, DpNodeId> inport_node;   // valid for PIs
  IndexVec<dfg::VarId, DpNodeId> outport_node;  // valid for POs
};

/// The full design representation: the data path and the control part.
struct EtpnWithControl : Etpn {
  petri::PetriNet control;

  /// Control place of each step (index = step; step 0 is the PI load step).
  std::vector<petri::PlaceId> step_place;

  /// Execution time: the control part's critical path length (equals the
  /// schedule length for chain-structured control).
  [[nodiscard]] int execution_time() const;
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

/// build_data_path plus the control part: a chain of control places, one
/// per step.  Checks that the control part's critical path equals the
/// schedule length.
[[nodiscard]] EtpnWithControl build_etpn(const dfg::Dfg& g,
                                         const sched::Schedule& s,
                                         const Binding& b,
                                         const EtpnOptions& options = {});

/// The label of a data-path node under binding `b`: "R: a, c" for a
/// register, "(+): N1, N2" for a module (Binding::reg_label /
/// module_label), "in:x" / "out:y" for ports.  A node of a group that is
/// dead or unknown in `b` reads "?".
[[nodiscard]] std::string node_label(const dfg::Dfg& g, const Binding& b,
                                     const DpNode& node);

}  // namespace hlts::etpn
