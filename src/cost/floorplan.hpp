// Connectivity-driven floorplanning heuristic (after Peng & Kuchcinski
// [14]): estimates wire lengths for the hardware cost model.
//
// Nodes are placed one by one, most-connected first, each at the free grid
// position minimizing the summed Manhattan distance to its already-placed
// neighbours, one term per connecting arc (connection widths do not enter;
// the cost model weights wire lengths by width afterwards), plus a 0.01
// pull toward the origin.  Candidates are scanned on a square spiral and
// the first strict minimum wins.  The physical pitch of a grid cell is
// derived from the average cell footprint, so wire length contributions
// scale correctly with bit width.
//
// Occupancy is a dense grid over the spiral's square, each node's placed
// neighbours are gathered into a position list before its scan (a probe is
// one array read and one pass over that list), and the scan stops at the
// first ring whose cost lower bound reaches the best cost found -- no cell
// from there on could win the strict comparison, so positions are the
// same as for a full scan.
//
// Tombstoned (dead) nodes and arcs are skipped throughout, so a patched
// graph floorplans exactly like a freshly built compact one: the same alive
// nodes in the same relative order compete for the same spiral positions.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cost/module_library.hpp"
#include "etpn/datapath.hpp"
#include "util/ids.hpp"

namespace hlts::cost {

struct Floorplan {
  /// Grid position of every data path node.
  IndexVec<etpn::DpNodeId, std::pair<int, int>> position;
  /// Physical side length of one grid cell in mm.
  double pitch = 0.0;

  /// Manhattan wire length between two nodes in mm.
  [[nodiscard]] double distance(etpn::DpNodeId a, etpn::DpNodeId b) const;
};

/// Reusable buffers for repeated floorplan runs.  Trial evaluation calls the
/// floorplanner once per candidate merger; keeping one scratch per worker
/// removes the per-trial allocation churn without changing any result (the
/// scratch-taking overloads produce bit-identical output to the plain ones).
struct FloorplanScratch {
  std::vector<int> connectivity;
  std::vector<std::vector<std::uint32_t>> neighbours;
  std::vector<std::uint32_t> order;
  std::vector<bool> placed;
  std::vector<std::pair<int, int>> spiral;
  /// Row-major over [-radius, radius]^2: nonzero where a node sits.
  std::vector<std::uint8_t> occupied;
  /// Positions of the node being placed's already-placed neighbours.
  std::vector<std::pair<int, int>> anchors;
};

[[nodiscard]] Floorplan floorplan(const etpn::DataPath& dp,
                                  const ModuleLibrary& lib, int bits);

/// As above, writing into `plan` and reusing `scratch`'s buffers.
void floorplan(const etpn::DataPath& dp, const ModuleLibrary& lib, int bits,
               Floorplan& plan, FloorplanScratch& scratch);

}  // namespace hlts::cost
