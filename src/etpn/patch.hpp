// In-place merge patching of the data path graph.
//
// A merger transformation (two modules or two registers fused) perturbs only
// the immediate neighbourhood of the two nodes, so instead of rebuilding the
// whole ETPN per trial, `apply_merge_patch` redirects the doomed node's arcs
// to the survivor and retires the node as a tombstone.  The returned
// `MergePatch` is an exact undo log: `revert_merge_patch` restores the graph
// bit-for-bit, which is what lets one shared graph serve many trial
// evaluations.
//
// Undo-log mechanics under the pooled (SoA) DataPath layout: the patcher
// records the two pool high-water marks, saves only POD state -- per-arc
// {endpoints, aliveness, step PoolSpan} and per-node {in/out PoolSpan} for
// the touched neighbourhood -- into arena-carved arrays, then rewrites every
// changed list/step-set as a fresh span at the pool tail.  Data below the
// marks is never overwritten, so revert = restore the saved descriptors and
// truncate the pools back to the marks.  With a warmed arena and pool slack,
// an apply/revert cycle performs zero heap allocations (bench/micro_perf
// counts this).  Stacked patches revert in LIFO order: an outer patch's
// saved spans all point below an inner patch's marks.
//
// Bit-identity contract (relied on by a trial's cost estimate and register
// distances): a patched graph is *indistinguishable by iteration order*
// from a graph freshly built for the merged binding, up to step sets,
// which the patch leaves stale (the merged design is not yet
// rescheduled).  The committed design is never patched: it is rebuilt with
// build_data_path.  Three invariants make this hold:
//
//  1. Fresh builds assign arc ids in emission order, and every node's arc
//     lists are ascending in arc id.  The patcher preserves the sorted-list
//     invariant by re-sorting the survivor's lists after splicing.
//  2. When a redirected arc collides with an existing arc (same from, to and
//     port), the arc with the *smaller* id survives and absorbs the loser's
//     step set.  A fresh build of the merged binding would emit the combined
//     arc at the first position either original arc was emitted, so min-id
//     survival keeps "alive arcs in ascending id order" equal to the fresh
//     build's emission order -- inductively, across any number of mergers.
//  3. Dead arcs are detached from both endpoints' lists and dead nodes keep
//     empty lists, so consumers that walk lists or skip tombstones visit
//     exactly the fresh build's elements, in the fresh build's order.
#pragma once

#include "etpn/etpn.hpp"
#include "util/arena.hpp"

namespace hlts::etpn {

/// Exact undo log for one in-place merger; see revert_merge_patch.  Holds
/// only POD descriptors in arena storage -- the arena (and thus the patch's
/// memory) must outlive the patch and not be reset before its revert.
struct MergePatch {
  DpNodeId from;

  struct ArcState {
    DpArcId id;
    DpNodeId from;
    DpNodeId to;
    PoolSpan steps;
    bool alive = true;
  };
  struct NodeState {
    DpNodeId id;
    PoolSpan in;
    PoolSpan out;
  };
  util::PodVec<ArcState> saved_arcs;
  /// Pre-patch adjacency spans of every node in the merger's neighbourhood.
  util::PodVec<NodeState> saved_nodes;
  /// Pool sizes at apply time; revert truncates back to these.
  std::size_t arc_pool_mark = 0;
  std::size_t step_pool_mark = 0;

  /// Number of arcs killed by duplicate-collapse (the mux savings of the
  /// merger); alive arc count drops by exactly this much.
  int arcs_deduped = 0;
};

/// Fuses data-path node `from` into `into` in place (both must be alive and
/// of the same kind: two Modules or two Registers).  `arena` backs the undo
/// log and the patcher's internal worklists; reset it only after the patch
/// is reverted or abandoned.  The survivor keeps its name, and no step set
/// is re-stamped for a new schedule: a patched graph's names and steps are
/// stale, and no trial consumer reads them.
MergePatch apply_merge_patch(DataPath& dp, util::Arena& arena, DpNodeId into,
                             DpNodeId from);

/// Restores the graph to its exact pre-patch state.  Patches must be
/// reverted in LIFO order when stacked.
void revert_merge_patch(DataPath& dp, const MergePatch& patch);

}  // namespace hlts::etpn
