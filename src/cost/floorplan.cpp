#include "cost/floorplan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

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

}  // namespace

Floorplan floorplan(const etpn::DataPath& dp, const ModuleLibrary& lib,
                    int bits) {
  Floorplan plan;
  FloorplanScratch scratch;
  floorplan(dp, lib, bits, plan, scratch);
  return plan;
}

void floorplan(const etpn::DataPath& dp, const ModuleLibrary& lib, int bits,
               Floorplan& plan, FloorplanScratch& scratch) {
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

  // Connectivity (number of arcs) per node, and neighbour lists.
  scratch.connectivity.assign(dp.num_nodes(), 0);
  scratch.neighbours.resize(dp.num_nodes());
  for (auto& nb : scratch.neighbours) nb.clear();
  for (etpn::DpArcId a : dp.arc_ids()) {
    if (!dp.alive(a)) continue;
    const etpn::DpArc& arc = dp.arc(a);
    ++scratch.connectivity[arc.from.index()];
    ++scratch.connectivity[arc.to.index()];
    scratch.neighbours[arc.from.index()].push_back(arc.to.value());
    scratch.neighbours[arc.to.index()].push_back(arc.from.value());
  }

  scratch.order.clear();
  for (etpn::DpNodeId n : dp.node_ids()) {
    if (dp.alive(n)) scratch.order.push_back(n.value());
  }
  std::stable_sort(scratch.order.begin(), scratch.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return scratch.connectivity[a] > scratch.connectivity[b];
                   });

  scratch.placed.assign(dp.num_nodes(), false);
  // Spiral candidate positions around the origin, enough for all nodes.
  scratch.spiral.clear();
  const int radius =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(alive)))) + 2;
  for (int r = 0; r <= radius; ++r) {
    for (int x = -r; x <= r; ++x) {
      for (int y = -r; y <= r; ++y) {
        if (std::max(std::abs(x), std::abs(y)) == r) {
          scratch.spiral.push_back({x, y});
        }
      }
    }
  }
  // Occupancy of the spiral's square, row-major from (-radius, -radius).
  const int side = 2 * radius + 1;
  scratch.occupied.assign(static_cast<std::size_t>(side) * side, 0);
  auto cell = [&](const std::pair<int, int>& pos) {
    return static_cast<std::size_t>(pos.first + radius) * side +
           static_cast<std::size_t>(pos.second + radius);
  };

  for (std::uint32_t idx : scratch.order) {
    etpn::DpNodeId n{idx};
    // The placed neighbours' positions, in neighbour-list order (repeats
    // kept) so each candidate's cost sums the same terms in the same order.
    scratch.anchors.clear();
    for (std::uint32_t nb : scratch.neighbours[idx]) {
      if (scratch.placed[nb]) {
        scratch.anchors.push_back(plan.position[etpn::DpNodeId{nb}]);
      }
    }
    std::pair<int, int> best_pos{0, 0};
    double best_cost = 1e300;
    // Ring r of the spiral (max(|x|, |y|) == r) holds indices
    // [(2r - 1)^2, (2r + 1)^2).  A cell at ring r or beyond is at least
    // r - max(|nx|, |ny|) from each anchor and pays at least 0.01 * r of
    // pull, and both bounds round no higher than the cost itself, so once
    // they reach best_cost no later cell can win the strict comparison.
    for (int r = 0; r <= radius; ++r) {
      int reach = 0;
      for (const auto& [nx, ny] : scratch.anchors) {
        reach += std::max(0, r - std::max(std::abs(nx), std::abs(ny)));
      }
      if (reach + 0.01 * r >= best_cost) break;
      const std::size_t begin = r == 0 ? 0 : (2 * r - 1) * (2 * r - 1);
      const std::size_t end = (2 * r + 1) * (2 * r + 1);
      for (std::size_t i = begin; i < end; ++i) {
        const std::pair<int, int>& pos = scratch.spiral[i];
        if (scratch.occupied[cell(pos)]) continue;
        double cost = 0;
        for (const auto& [nx, ny] : scratch.anchors) {
          cost += std::abs(pos.first - nx) + std::abs(pos.second - ny);
        }
        // Light pull toward the origin keeps unconnected nodes compact.
        cost += 0.01 * (std::abs(pos.first) + std::abs(pos.second));
        if (cost < best_cost) {
          best_cost = cost;
          best_pos = pos;
        }
      }
    }
    plan.position[n] = best_pos;
    scratch.occupied[cell(best_pos)] = 1;
    scratch.placed[idx] = true;
  }
}

}  // namespace hlts::cost
