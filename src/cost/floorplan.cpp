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

#include "util/error.hpp"

namespace hlts::cost {

double Floorplan::distance(etpn::DpNodeId a, etpn::DpNodeId b) const {
  const auto [ax, ay] = position[a];
  const auto [bx, by] = position[b];
  return pitch * (std::abs(ax - bx) + std::abs(ay - by));
}

/// The spiral of [-radius, radius]^2: ring r (max(|x|, |y|) == r) follows
/// ring r - 1 and is visited in (x, y) order.
struct SpiralTable {
  int radius = 0;
  int side = 0;
  /// Spiral index of cell (x, y), at [(x + radius) * side + y + radius].
  std::vector<std::uint32_t> index;
  /// The cell at each spiral index.
  std::vector<std::pair<int, int>> cell;
  /// The spiral indices in (|x| + |y|, spiral index) order.
  std::vector<std::uint32_t> nearest;
  /// The pull 0.01 * p of a cell with |x| + |y| = p, as the cost adds it.
  std::vector<double> pull;
};

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

/// Each radius's table is built once per process, under a lock, and never
/// changes after; every floorplan scratch of every thread shares it.
const SpiralTable& spiral_table(int radius) {
  static std::mutex mutex;
  static std::map<int, std::unique_ptr<const SpiralTable>> tables;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& table = tables[radius];
  if (!table) {
    auto t = std::make_unique<SpiralTable>();
    t->radius = radius;
    t->side = 2 * radius + 1;
    const auto cells = static_cast<std::size_t>(t->side) * t->side;
    t->index.resize(cells);
    t->cell.reserve(cells);
    for (int r = 0; r <= radius; ++r) {
      for (int x = -r; x <= r; ++x) {
        for (int y = -r; y <= r; ++y) {
          if (std::max(std::abs(x), std::abs(y)) != r) continue;
          t->index[static_cast<std::size_t>((x + radius) * t->side + y +
                                            radius)] =
              static_cast<std::uint32_t>(t->cell.size());
          t->cell.push_back({x, y});
        }
      }
    }
    for (int p = 0; p <= 2 * radius; ++p) t->pull.push_back(0.01 * p);
    t->nearest.resize(cells);
    std::iota(t->nearest.begin(), t->nearest.end(), 0u);
    auto l1 = [&](std::uint32_t i) {
      return std::abs(t->cell[i].first) + std::abs(t->cell[i].second);
    };
    std::stable_sort(t->nearest.begin(), t->nearest.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return l1(a) < l1(b);
                     });
    table = std::move(t);
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
int best_coordinate(const int* anchors, std::size_t k,
                    std::vector<int>& sorted) {
  if (k <= 2) {  // most nodes have one or two anchors
    const auto [lo, hi] = std::minmax(anchors[0], anchors[k - 1]);
    return std::clamp(0, lo, hi);
  }
  sorted.assign(anchors, anchors + k);
  std::sort(sorted.begin(), sorted.end());
  return std::clamp(0, sorted[(k - 1) / 2], sorted[k / 2]);
}

/// Sum of |c - anchors[i]| over the k anchors; K > 0 fixes k at K.
template <std::size_t K>
int summed_distance(const int* anchors, std::size_t k, int c) {
  if constexpr (K > 0) k = K;
  int sum = 0;
  for (std::size_t i = 0; i < k; ++i) sum += std::abs(c - anchors[i]);
  return sum;
}

/// A candidate cell as one unsigned integer: the bits of its cost over its
/// spiral index.  Costs are non-negative doubles, whose bit patterns order
/// like their values, so the keys order like (cost, spiral index) at every
/// radius, however large the pull grows.
using CellKey = unsigned __int128;

CellKey cell_key(double cost, std::uint32_t index) {
  return (static_cast<CellKey>(std::bit_cast<std::uint64_t>(cost)) << 32) |
         index;
}

/// Lines of `words` words with one bit per free cell of [-radius, radius]^2,
/// all set.
std::size_t clear_grid(std::vector<std::uint64_t>& free, int radius) {
  const int side = 2 * radius + 1;
  const std::size_t words = (static_cast<std::size_t>(side) + 63) / 64;
  free.assign(static_cast<std::size_t>(side) * words, ~std::uint64_t{0});
  if (side % 64 != 0) {
    const std::uint64_t tail = (std::uint64_t{1} << (side % 64)) - 1;
    for (int x = 0; x < side; ++x) free[(x + 1) * words - 1] = tail;
  }
  return words;
}

/// The free cell minimizing (cost, spiral index) for a node with `k` >= 1
/// anchors at (ax[i], ay[i]), best coordinates (bx, by); K > 0 fixes k at
/// K.  `free` holds the lines of t's square, `words` words each.
template <std::size_t K>
std::pair<int, int> place_near(const int* ax, const int* ay, std::size_t k,
                               int bx, int by, const std::uint64_t* free,
                               std::size_t words, const SpiralTable& t) {
  const int radius = t.radius;
  const int min_sy = summed_distance<K>(ay, k, by);
  const int from = by + radius;  // by's bit in a line
  CellKey best = cell_key(std::numeric_limits<double>::infinity(), 0);
  // Line x's best free cells: the nearest at or above by and below it.
  auto scan_line = [&](int x, int sx) {
    const std::uint64_t* line = free + (x + radius) * words;
    const std::uint32_t* index = &t.index[(x + radius) * t.side];
    const int up = next_free(line, words, from);
    const int down = prev_free(line, from);
    for (const int bit : {up, down}) {
      if (bit < 0) continue;
      const int y = bit - radius;
      const double cost =
          static_cast<double>(sx + summed_distance<K>(ay, k, y)) +
          t.pull[std::abs(x) + std::abs(y)];
      best = std::min(best, cell_key(cost, index[bit]));
    }
  };
  // Is line x inside the square with a bound Sx(x) + min Sy + 0.01 |x| not
  // above the best cost?  If not, neither is any line beyond it.
  auto open = [&](int x, int& sx) {
    if (x < -radius || x > radius) return false;
    sx = summed_distance<K>(ax, k, x);
    const double bound = static_cast<double>(sx + min_sy) + t.pull[std::abs(x)];
    return std::bit_cast<std::uint64_t>(bound) <=
           static_cast<std::uint64_t>(best >> 32);
  };
  // Outward from bx, alternating sides, each side until a line is not open.
  int sx = 0;
  if (open(bx, sx)) scan_line(bx, sx);
  bool up = true;
  bool down = true;
  for (int d = 1; up || down; ++d) {
    if (up && (up = open(bx + d, sx))) scan_line(bx + d, sx);
    if (down && (down = open(bx - d, sx))) scan_line(bx - d, sx);
  }
  return t.cell[static_cast<std::uint32_t>(best)];
}

/// place_near with the common anchor counts (one or two: most nodes)
/// fixed at compile time.
std::pair<int, int> place_near(const int* ax, const int* ay, std::size_t k,
                               int bx, int by, const std::uint64_t* free,
                               std::size_t words, const SpiralTable& t) {
  switch (k) {
    case 1:
      return place_near<1>(ax, ay, k, bx, by, free, words, t);
    case 2:
      return place_near<2>(ax, ay, k, bx, by, free, words, t);
    default:
      return place_near<0>(ax, ay, k, bx, by, free, words, t);
  }
}

void take(std::uint64_t* free, std::size_t words, int radius,
          std::pair<int, int> cell) {
  free[(cell.first + radius) * words + (cell.second + radius) / 64] &=
      ~(std::uint64_t{1} << ((cell.second + radius) % 64));
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
  if (s.spiral == nullptr || s.spiral->radius != radius) {
    s.spiral = &spiral_table(radius);
  }
  const SpiralTable& spiral = *s.spiral;
  const std::size_t words = clear_grid(s.free, radius);
  s.placed.assign(n, 0);
  std::size_t nearest = 0;  // cells before it are all taken

  s.anchor_x.resize(max_conn);
  s.anchor_y.resize(max_conn);

  for (std::uint32_t idx : s.order) {
    // The placed neighbours' cells; every neighbour's is written, and only
    // a placed one's is kept.
    std::size_t k = 0;
    for (std::uint32_t j = s.neighbour_begin[idx];
         j < s.neighbour_begin[idx + 1]; ++j) {
      const std::uint32_t nb = s.neighbours[j];
      const auto [nx, ny] = plan.position[etpn::DpNodeId{nb}];
      s.anchor_x[k] = nx;
      s.anchor_y[k] = ny;
      k += s.placed[nb];
    }

    std::pair<int, int> best_pos{0, 0};
    if (k == 0) {
      // Only the pull: the first free cell in (|x| + |y|, spiral) order.
      auto usable = [&](std::uint32_t i) {
        const auto [x, y] = spiral.cell[i];
        return ((s.free[(x + radius) * words + (y + radius) / 64] >>
                 ((y + radius) % 64)) &
                1) != 0;
      };
      while (!usable(spiral.nearest[nearest])) ++nearest;
      best_pos = spiral.cell[spiral.nearest[nearest]];
    } else {
      best_pos = place_near(s.anchor_x.data(), s.anchor_y.data(), k,
                            best_coordinate(s.anchor_x.data(), k, s.median),
                            best_coordinate(s.anchor_y.data(), k, s.median),
                            s.free.data(), words, spiral);
    }
    plan.position[etpn::DpNodeId{idx}] = best_pos;
    take(s.free.data(), words, radius, best_pos);
    s.placed[idx] = 1;
  }
}

std::pair<int, int> place_on_grid(
    int radius, const std::vector<std::pair<int, int>>& taken,
    const std::vector<std::pair<int, int>>& anchors) {
  HLTS_REQUIRE(!anchors.empty(), "place_on_grid without anchors");
  auto inside = [&](const std::pair<int, int>& cell) {
    return std::max(std::abs(cell.first), std::abs(cell.second)) <= radius;
  };
  HLTS_REQUIRE(radius >= 0 &&
                   std::all_of(taken.begin(), taken.end(), inside) &&
                   std::all_of(anchors.begin(), anchors.end(), inside),
               "place_on_grid: a cell off the grid");
  std::vector<std::uint64_t> free;
  const std::size_t words = clear_grid(free, radius);
  for (const std::pair<int, int>& cell : taken) {
    take(free.data(), words, radius, cell);
  }
  HLTS_REQUIRE(std::any_of(free.begin(), free.end(),
                           [](std::uint64_t line) { return line != 0; }),
               "place_on_grid: no free cell");
  std::vector<int> ax, ay, sorted;
  for (const auto& [x, y] : anchors) {
    ax.push_back(x);
    ay.push_back(y);
  }
  return place_near(ax.data(), ay.data(), ax.size(),
                    best_coordinate(ax.data(), ax.size(), sorted),
                    best_coordinate(ay.data(), ay.size(), sorted),
                    free.data(), words, spiral_table(radius));
}

}  // namespace hlts::cost
