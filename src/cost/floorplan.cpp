#include "cost/floorplan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>

namespace hlts::cost {

double Floorplan::distance(etpn::DpNodeId a, etpn::DpNodeId b) const {
  const auto [ax, ay] = position[a];
  const auto [bx, by] = position[b];
  return pitch * (std::abs(ax - bx) + std::abs(ay - by));
}

namespace {

double node_area(const etpn::DpNode& node, const ModuleLibrary& lib, int bits) {
  switch (node.kind) {
    case etpn::DpNodeKind::Register:
      return lib.register_area(bits);
    case etpn::DpNodeKind::Module:
      return lib.module_area(node.op_class, bits);
    case etpn::DpNodeKind::InPort:
    case etpn::DpNodeKind::OutPort:
      return 0.0;  // pads; excluded from core area
  }
  return 0.0;
}

/// Position of cell (x, y) on the spiral: ring r (max(|x|, |y|) == r)
/// follows ring r - 1 and is visited in (x, y) order -- the full column
/// x = -r, then the two cells (x, -r), (x, r) of each inner column, then
/// the full column x = r.
std::uint32_t spiral_index(int x, int y) {
  const int r = std::max(std::abs(x), std::abs(y));
  if (r == 0) return 0;
  const int before = (2 * r - 1) * (2 * r - 1);
  int offset = 0;
  if (x == -r) {
    offset = y + r;
  } else if (x < r) {
    offset = (2 * r + 1) + 2 * (x + r - 1) + (y == r ? 1 : 0);
  } else {
    offset = (2 * r + 1) + 2 * (2 * r - 1) + (y + r);
  }
  return static_cast<std::uint32_t>(before + offset);
}

/// The cells of [-radius, radius]^2 in (|x| + |y|, spiral index) order.
/// Each radius's table is built once per process, under a lock, and never
/// changes after; every floorplan scratch of every thread shares it.
const std::vector<std::pair<int, int>>& nearest_cells(int radius) {
  static std::mutex mutex;
  static std::map<int, std::unique_ptr<const std::vector<std::pair<int, int>>>>
      tables;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& table = tables[radius];
  if (!table) {
    std::vector<std::pair<int, int>> cells;
    for (int x = -radius; x <= radius; ++x) {
      for (int y = -radius; y <= radius; ++y) cells.push_back({x, y});
    }
    std::sort(cells.begin(), cells.end(),
              [](const std::pair<int, int>& a, const std::pair<int, int>& b) {
                const int pa = std::abs(a.first) + std::abs(a.second);
                const int pb = std::abs(b.first) + std::abs(b.second);
                return pa != pb ? pa < pb
                                : spiral_index(a.first, a.second) <
                                      spiral_index(b.first, b.second);
              });
    table = std::make_unique<const std::vector<std::pair<int, int>>>(
        std::move(cells));
  }
  return *table;
}

/// Smallest set bit position >= `from` in a line of `words` words; -1 if
/// none.
int next_free(const std::uint64_t* line, std::size_t words, int from) {
  std::size_t w = static_cast<std::size_t>(from) / 64;
  std::uint64_t bits = line[w] & (~std::uint64_t{0} << (from % 64));
  for (;;) {
    if (bits != 0) return static_cast<int>(w * 64) + std::countr_zero(bits);
    if (++w == words) return -1;
    bits = line[w];
  }
}

/// Largest set bit position < `before` in a line; -1 if none.
int prev_free(const std::uint64_t* line, int before) {
  if (before <= 0) return -1;
  const int last = before - 1;
  std::size_t w = static_cast<std::size_t>(last) / 64;
  std::uint64_t bits = line[w] & (~std::uint64_t{0} >> (63 - last % 64));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>(w * 64) + 63 - std::countl_zero(bits);
    }
    if (w == 0) return -1;
    bits = line[--w];
  }
}

/// The coordinate minimizing sum |c - a_i| + 0.01 |c|: the anchors' median
/// interval clamped toward 0.
int best_coordinate(const std::vector<int>& anchors, std::vector<int>& sorted) {
  if (anchors.size() <= 2) {  // most nodes have one or two anchors
    const auto [lo, hi] = std::minmax(anchors.front(), anchors.back());
    return std::clamp(0, lo, hi);
  }
  sorted.assign(anchors.begin(), anchors.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t k = sorted.size();
  return std::clamp(0, sorted[(k - 1) / 2], sorted[k / 2]);
}

int summed_distance(const int* anchors, std::size_t k, int c) {
  int sum = 0;
  for (std::size_t i = 0; i < k; ++i) sum += std::abs(c - anchors[i]);
  return sum;
}

/// The free cell minimizing (cost, spiral index) for a node with `k` >= 1
/// anchors at (ax[i], ay[i]), best coordinates (bx, by).  `free` holds the
/// lines of [-radius, radius]^2, `words` words each.
std::pair<int, int> place_near(const int* ax, const int* ay, std::size_t k,
                               int bx, int by, const std::uint64_t* free,
                               std::size_t words, int radius) {
  const int min_sy = summed_distance(ay, k, by);
  double best_cost = std::numeric_limits<double>::infinity();
  std::uint32_t best_index = 0;
  std::pair<int, int> best_pos{0, 0};
  auto consider = [&](int x, int y, int sx) {
    const double cost = static_cast<double>(sx + summed_distance(ay, k, y)) +
                        0.01 * (std::abs(x) + std::abs(y));
    if (cost > best_cost) return;
    const std::uint32_t index = spiral_index(x, y);
    if (cost < best_cost || index < best_index) {
      best_cost = cost;
      best_index = index;
      best_pos = {x, y};
    }
  };
  // Line x's best free cells, unless its bound exceeds the best cost (then
  // so do the bounds of the lines beyond it).
  auto scan_line = [&](int x) {
    const int sx = summed_distance(ax, k, x);
    if (static_cast<double>(sx + min_sy) + 0.01 * std::abs(x) > best_cost) {
      return false;
    }
    const std::uint64_t* line = free + (x + radius) * words;
    const int up = next_free(line, words, by + radius);
    if (up >= 0) consider(x, up - radius, sx);
    const int down = prev_free(line, by + radius);
    if (down >= 0) consider(x, down - radius, sx);
    return true;
  };
  // Outward from bx, alternating sides, each side until its bound exceeds
  // the best cost.
  bool up = true;
  bool down = true;
  for (int d = 0; up || down; ++d) {
    if (up) up = bx + d <= radius && scan_line(bx + d);
    if (down && d > 0) down = bx - d >= -radius && scan_line(bx - d);
  }
  return best_pos;
}

}  // namespace

Floorplan floorplan(const etpn::DataPath& dp, const ModuleLibrary& lib,
                    int bits) {
  Floorplan plan;
  FloorplanScratch scratch;
  floorplan(dp, lib, bits, plan, scratch);
  return plan;
}

void floorplan(const etpn::DataPath& dp, const ModuleLibrary& lib, int bits,
               Floorplan& plan, FloorplanScratch& s) {
  plan.position.assign(dp.num_nodes(), {0, 0});
  plan.pitch = 0.0;
  const std::size_t alive = dp.num_alive_nodes();
  if (alive == 0) return;

  // Pitch: side of the average cell footprint.
  double total_area = 0;
  for (etpn::DpNodeId n : dp.node_ids()) {
    if (!dp.alive(n)) continue;
    total_area += node_area(dp.node(n), lib, bits);
  }
  plan.pitch =
      std::sqrt(std::max(total_area, 1e-9) / static_cast<double>(alive));

  // Connectivity (number of arcs) per node, and neighbour lists as CSR.
  const std::size_t n = dp.num_nodes();
  s.connectivity.assign(n, 0);
  for (etpn::DpArcId a : dp.arc_ids()) {
    if (!dp.alive(a)) continue;
    ++s.connectivity[dp.arc(a).from.index()];
    ++s.connectivity[dp.arc(a).to.index()];
  }
  s.neighbour_begin.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    s.neighbour_begin[i + 1] = s.neighbour_begin[i] + s.connectivity[i];
  }
  s.neighbours.resize(s.neighbour_begin[n]);
  for (etpn::DpArcId a : dp.arc_ids()) {
    if (!dp.alive(a)) continue;
    const etpn::DpArc& arc = dp.arc(a);
    s.neighbours[s.neighbour_begin[arc.from.index()]++] = arc.to.value();
    s.neighbours[s.neighbour_begin[arc.to.index()]++] = arc.from.value();
  }
  for (std::size_t i = n; i > 0; --i) {
    s.neighbour_begin[i] = s.neighbour_begin[i - 1];
  }
  s.neighbour_begin[0] = 0;

  // Placement order: connectivity descending, ids ascending among equals
  // (a counting sort; a stable sort of the ids by connectivity agrees).
  std::uint32_t max_conn = 0;
  for (etpn::DpNodeId v : dp.node_ids()) {
    if (dp.alive(v)) max_conn = std::max(max_conn, s.connectivity[v.index()]);
  }
  s.bucket.assign(static_cast<std::size_t>(max_conn) + 2, 0);
  for (etpn::DpNodeId v : dp.node_ids()) {
    if (dp.alive(v)) ++s.bucket[max_conn - s.connectivity[v.index()] + 1];
  }
  std::partial_sum(s.bucket.begin(), s.bucket.end(), s.bucket.begin());
  s.order.resize(alive);
  for (etpn::DpNodeId v : dp.node_ids()) {
    if (dp.alive(v)) {
      s.order[s.bucket[max_conn - s.connectivity[v.index()]]++] = v.value();
    }
  }

  // The spiral's square, [-radius, radius]^2, enough cells for all nodes.
  const int radius =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(alive)))) + 2;
  if (s.radius != radius) {
    s.nearest = &nearest_cells(radius);
    s.radius = radius;
  }
  const std::vector<std::pair<int, int>>& cells = *s.nearest;
  const int side = 2 * radius + 1;
  const std::size_t words = (static_cast<std::size_t>(side) + 63) / 64;
  s.free.assign(static_cast<std::size_t>(side) * words, ~std::uint64_t{0});
  if (side % 64 != 0) {
    const std::uint64_t tail = (std::uint64_t{1} << (side % 64)) - 1;
    for (int x = 0; x < side; ++x) s.free[(x + 1) * words - 1] = tail;
  }
  auto line = [&](int x) { return &s.free[(x + radius) * words]; };
  s.placed.assign(n, 0);
  std::size_t nearest = 0;  // cells before it are all taken

  for (std::uint32_t idx : s.order) {
    s.anchor_x.clear();
    s.anchor_y.clear();
    for (std::uint32_t k = s.neighbour_begin[idx];
         k < s.neighbour_begin[idx + 1]; ++k) {
      const std::uint32_t nb = s.neighbours[k];
      if (!s.placed[nb]) continue;
      const auto [nx, ny] = plan.position[etpn::DpNodeId{nb}];
      s.anchor_x.push_back(nx);
      s.anchor_y.push_back(ny);
    }

    std::pair<int, int> best_pos{0, 0};
    if (s.anchor_x.empty()) {
      // Only the pull: the first free cell in (|x| + |y|, spiral) order.
      auto usable = [&](const std::pair<int, int>& c) {
        const auto [x, y] = c;
        return ((line(x)[(y + radius) / 64] >> ((y + radius) % 64)) & 1) != 0;
      };
      while (!usable(cells[nearest])) ++nearest;
      best_pos = cells[nearest];
    } else {
      best_pos = place_near(s.anchor_x.data(), s.anchor_y.data(),
                            s.anchor_x.size(),
                            best_coordinate(s.anchor_x, s.median),
                            best_coordinate(s.anchor_y, s.median),
                            s.free.data(), words, radius);
    }
    plan.position[etpn::DpNodeId{idx}] = best_pos;
    line(best_pos.first)[(best_pos.second + radius) / 64] &=
        ~(std::uint64_t{1} << ((best_pos.second + radius) % 64));
    s.placed[idx] = 1;
  }
}

}  // namespace hlts::cost
