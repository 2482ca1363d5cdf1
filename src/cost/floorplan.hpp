// Connectivity-driven floorplanning heuristic (after Peng & Kuchcinski
// [14]): estimates wire lengths for the hardware cost model.
//
// Nodes are placed one by one, most-connected first, each at the free grid
// position minimizing the summed Manhattan distance to its already-placed
// neighbours, one term per connecting arc (connection widths do not enter;
// the cost model weights wire lengths by width afterwards), plus a 0.01
// pull toward the origin.  Candidates are the cells of a square spiral
// around the origin, and among equal costs the earliest spiral cell wins:
// the chosen cell is the lexicographic minimum of (cost, spiral index) over
// the free cells.  The physical pitch of a grid cell is derived from the
// average cell footprint, so wire length contributions scale correctly
// with bit width.
//
// Because the choice is a lexicographic minimum, the search may probe cells
// in any order as long as it stops on an exact bound.  The summed distance
// is separable, S(x, y) = Sx(x) + Sy(y), and each half is convex with its
// minimum on the anchors' median interval.  Adding the pull, each half is
// strictly decreasing then strictly increasing around one best coordinate
// (the median interval clamped toward 0).  So within one grid line x the
// best free cell is the nearest free cell on either side of the best y, and
// the lines' lower bound Sx(x) + min Sy + 0.01 |x| grows away from the best
// x: the search walks lines outward from there and stops a direction once
// that bound exceeds the best cost found.  A per-line free-cell bitmask makes
// each line's nearest free cells one bit scan.  Costs are sums of small
// integers plus the pull, far below 2^40, so steps of 0.01 survive
// rounding and every comparison is made on the same double the full scan
// computes: the best cell so far is one 128-bit key, the cost's bits over
// the cell's spiral index, taken by a branch-free minimum.  A node with no
// placed neighbour pays the pull only: it takes the first free cell in
// (|x| + |y|, spiral index) order.  Spiral indices, that order and the
// pull come from tables built once per radius and process.
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

/// Per radius: each cell's spiral index, the cell at each index, and the
/// cells in (|x| + |y|, spiral index) order.
struct SpiralTable;

/// Reusable buffers for repeated floorplan runs.  Trial evaluation calls the
/// floorplanner once per candidate merger; keeping one scratch per worker
/// removes the per-trial allocation churn without changing any result (the
/// scratch-taking overloads produce bit-identical output to the plain ones).
struct FloorplanScratch {
  /// Per node: alive arc count, and the neighbour lists as CSR.
  std::vector<std::uint32_t> connectivity, neighbour_begin, neighbours;
  /// Placement order (connectivity descending, then id) and its buckets.
  std::vector<std::uint32_t> order, bucket;
  std::vector<std::uint8_t> placed;
  /// Per line x: one bit per free cell y, lines of words_per_line words.
  std::vector<std::uint64_t> free;
  /// The node being placed's anchors (placed neighbours' coordinates),
  /// room for the most connected node's.
  std::vector<int> anchor_x, anchor_y, median;

  /// The spiral table of the last radius used (process-wide, immutable).
  const SpiralTable* spiral = nullptr;
};

[[nodiscard]] Floorplan floorplan(const etpn::DataPath& dp,
                                  const ModuleLibrary& lib, int bits);

/// As above, writing into `plan` and reusing `scratch`'s buffers.
void floorplan(const etpn::DataPath& dp, const ModuleLibrary& lib, int bits,
               Floorplan& plan, FloorplanScratch& scratch);

/// The cell floorplan() gives a node whose placed neighbours sit at
/// `anchors` (one entry per arc, at least one), on [-radius, radius]^2 with
/// the `taken` cells occupied (every cell on the grid, one left free).  A full floorplan keeps its cells in a blob
/// around the origin; this places on any hand-made grid, e.g. next to its
/// edge, for tests.
[[nodiscard]] std::pair<int, int> place_on_grid(
    int radius, const std::vector<std::pair<int, int>>& taken,
    const std::vector<std::pair<int, int>>& anchors);

}  // namespace hlts::cost
