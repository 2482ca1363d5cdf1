// Frozen reference implementations of the layers Algorithm 1 spends its
// time in: the merge-sort rescheduler (paper §4.3), the connectivity-driven
// floorplanner behind the hardware cost estimate (paper §4.2), the two
// candidate rankings and the testability fixpoint they read (paper §3),
// and the data-path build every commit derives.
//
// These are the straightforward versions the production code was derived
// from.  The rescheduler rebuilds and re-solves the whole scheduling-
// constraint graph (a heap-ordered Kahn longest path) for every order it
// evaluates; the floorplanner probes a std::set of occupied cells at every
// spiral position; the binding check compares every pair of a group; the
// register distances behind the SR1/SR2 keys use per-node adjacency
// vectors and a deque; the rankings score every pair and stable-sort the
// lot; the testability fixpoint revisits every node in every round; the
// data-path build labels every node, grows every list and step set one
// transfer at a time and compacts the pools afterwards.
// Production core::reschedule, core::reschedule_merger,
// cost::estimate_cost, core::schedule_respects_binding,
// etpn::build_data_path, etpn::node_label,
// etpn::DataPath::register_distances, etpn::RegisterReach,
// testability::select_balance_candidates,
// core::select_connectivity_candidates and testability::TestabilityAnalysis
// must match them bit for bit -- the differential tests and
// reference_synthesis.hpp's from-scratch Algorithm-1 step compare against
// these copies, never against the code under test.
#pragma once

#include <string>
#include <vector>

#include "core/resched.hpp"
#include "cost/cost.hpp"
#include "cost/floorplan.hpp"
#include "dfg/dfg.hpp"
#include "etpn/binding.hpp"
#include "etpn/etpn.hpp"
#include "sched/schedule.hpp"
#include "testability/balance.hpp"
#include "testability/testability.hpp"

namespace hlts::test_support {

/// core::reschedule as a full re-solve per evaluated order.  `premerged`
/// plays the same role as in core::reschedule.
[[nodiscard]] core::ReschedOutcome reference_reschedule(
    const dfg::Dfg& g, const etpn::Binding& b, const sched::Schedule& hint,
    core::OrderStrategy strategy, const etpn::Etpn* premerged = nullptr);

/// core::schedule_respects_binding by all-pairs comparison per module and
/// per register.
[[nodiscard]] bool reference_schedule_respects_binding(
    const dfg::Dfg& g, const etpn::Binding& b, const sched::Schedule& s);

/// etpn::DataPath::register_distances over per-node adjacency vectors.
[[nodiscard]] etpn::DataPath::RegisterDistances reference_register_distances(
    const etpn::DataPath& dp);

/// cost::floorplan with a std::set occupancy probe.
[[nodiscard]] cost::Floorplan reference_floorplan(
    const etpn::DataPath& dp, const cost::ModuleLibrary& lib, int bits);

/// cost::estimate_cost over reference_floorplan.
[[nodiscard]] cost::HardwareCost reference_estimate_cost(
    const etpn::DataPath& dp, const cost::ModuleLibrary& lib, int bits);

/// testability::TestabilityAnalysis with the plain round-robin fixpoint:
/// each round re-evaluates every node, until a round changes nothing.
class ReferenceTestability {
 public:
  explicit ReferenceTestability(const etpn::DataPath& dp);

  [[nodiscard]] testability::Measure line_controllability(
      etpn::DpArcId a) const {
    return cc_[a.index()];
  }
  [[nodiscard]] testability::Measure line_observability(
      etpn::DpArcId a) const {
    return co_[a.index()];
  }
  [[nodiscard]] testability::Measure node_controllability(
      etpn::DpNodeId n) const;
  [[nodiscard]] testability::Measure node_observability(
      etpn::DpNodeId n) const;
  [[nodiscard]] double balance_index() const;

 private:
  const etpn::DataPath& dp_;
  std::vector<testability::Measure> cc_, co_;
};

/// testability::select_balance_candidates over `analysis`: every feasible
/// pair scored, then a stable sort by score and the first `k`.
[[nodiscard]] std::vector<testability::MergeCandidate>
reference_select_balance_candidates(const dfg::Dfg& g, const etpn::Binding& b,
                                    const etpn::Etpn& e,
                                    const ReferenceTestability& analysis,
                                    int k,
                                    const testability::BalanceOptions& options);

/// core::select_connectivity_candidates: every pair sharing interconnect
/// scored, then a stable sort by score and the first `k`.
[[nodiscard]] std::vector<testability::MergeCandidate>
reference_select_connectivity_candidates(const dfg::Dfg& g,
                                         const etpn::Binding& b,
                                         const etpn::Etpn& e, int k);

/// etpn::build_data_path the way it was first written, as plain arrays:
/// every node stored with its label, every transfer appended to its arc
/// (lists and step sets grow by doubling at the pool tails), then a
/// compaction pass that copies each node's in-list and out-list, and each
/// arc's step set, into fresh pools in id order.
struct ReferenceDataPath {
  struct Node {
    etpn::DpNode fields;
    std::string name;
  };
  std::vector<Node> nodes;
  std::vector<etpn::DpArc> arcs;
  std::vector<etpn::PoolSpan> in_span, out_span, step_span;
  std::vector<etpn::DpArcId> arc_pool;
  std::vector<int> step_pool;
  IndexVec<etpn::ModuleId, etpn::DpNodeId> module_node;
  IndexVec<etpn::RegId, etpn::DpNodeId> reg_node;
  IndexVec<dfg::VarId, etpn::DpNodeId> inport_node;
  IndexVec<dfg::VarId, etpn::DpNodeId> outport_node;
};
[[nodiscard]] ReferenceDataPath reference_build_data_path(
    const dfg::Dfg& g, const sched::Schedule& s, const etpn::Binding& b);

}  // namespace hlts::test_support
