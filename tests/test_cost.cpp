// Unit tests for the cost model: module library, floorplanner and the
// H = sum Area + sum Len x Wid estimate.
#include <gtest/gtest.h>

#include "benchmarks/benchmarks.hpp"
#include "cost/cost.hpp"
#include "etpn/etpn.hpp"
#include "sched/schedule.hpp"

namespace hlts {
namespace {

using cost::ModuleLibrary;

TEST(ModuleLibrary, AreasGrowWithWidth) {
  ModuleLibrary lib = ModuleLibrary::standard();
  for (dfg::OpKind kind : {dfg::OpKind::Add, dfg::OpKind::Mul, dfg::OpKind::Div,
                           dfg::OpKind::Less, dfg::OpKind::And}) {
    EXPECT_LT(lib.module_area(kind, 4), lib.module_area(kind, 8));
    EXPECT_LT(lib.module_area(kind, 8), lib.module_area(kind, 16));
  }
  EXPECT_LT(lib.register_area(4), lib.register_area(16));
}

TEST(ModuleLibrary, MultiplierQuadraticAdderLinear) {
  ModuleLibrary lib = ModuleLibrary::standard();
  const double add_ratio =
      lib.module_area(dfg::OpKind::Add, 16) / lib.module_area(dfg::OpKind::Add, 4);
  const double mul_ratio =
      lib.module_area(dfg::OpKind::Mul, 16) / lib.module_area(dfg::OpKind::Mul, 4);
  EXPECT_NEAR(add_ratio, 4.0, 0.01);
  EXPECT_NEAR(mul_ratio, 16.0, 0.01);
}

TEST(Floorplan, PlacesAllNodesDistinctly) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::asap(g);
  etpn::Binding b = etpn::Binding::default_binding(g);
  etpn::Etpn e = etpn::build_data_path(g, s, b);
  cost::Floorplan plan =
      cost::floorplan(e.data_path, ModuleLibrary::standard(), 8);
  EXPECT_GT(plan.pitch, 0.0);
  std::set<std::pair<int, int>> seen;
  for (etpn::DpNodeId n : e.data_path.node_ids()) {
    EXPECT_TRUE(seen.insert(plan.position[n]).second) << "overlap";
  }
}

TEST(Floorplan, ConnectedNodesPlacedClose) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::asap(g);
  etpn::Binding b = etpn::Binding::default_binding(g);
  etpn::Etpn e = etpn::build_data_path(g, s, b);
  const auto& dp = e.data_path;
  cost::Floorplan plan = cost::floorplan(dp, ModuleLibrary::standard(), 8);
  // Average arc length must beat the average all-pairs distance (the whole
  // point of connectivity-driven placement).
  double arc_total = 0;
  int arcs = 0;
  for (etpn::DpArcId a : dp.arc_ids()) {
    arc_total += plan.distance(dp.arc(a).from, dp.arc(a).to);
    ++arcs;
  }
  double pair_total = 0;
  int pairs = 0;
  for (etpn::DpNodeId x : dp.node_ids()) {
    for (etpn::DpNodeId y : dp.node_ids()) {
      if (x.value() < y.value()) {
        pair_total += plan.distance(x, y);
        ++pairs;
      }
    }
  }
  EXPECT_LT(arc_total / arcs, pair_total / pairs);
}

TEST(Cost, ComponentsAddUp) {
  dfg::Dfg g = benchmarks::make_diffeq();
  sched::Schedule s = sched::asap(g);
  etpn::Binding b = etpn::Binding::default_binding(g);
  etpn::Etpn e = etpn::build_data_path(g, s, b);
  cost::HardwareCost h =
      cost::estimate_cost(e.data_path, ModuleLibrary::standard(), 8);
  EXPECT_GT(h.module_area, 0);
  EXPECT_GT(h.register_area, 0);
  EXPECT_EQ(h.mux_area, 0);  // default allocation: no shared ports
  EXPECT_GT(h.wire_area, 0);
  EXPECT_NEAR(h.total(),
              h.module_area + h.register_area + h.mux_area + h.wire_area,
              1e-12);
}

TEST(Cost, WidthScalesTotal) {
  dfg::Dfg g = benchmarks::make_dct();
  sched::Schedule s = sched::asap(g);
  etpn::Binding b = etpn::Binding::default_binding(g);
  etpn::Etpn e = etpn::build_data_path(g, s, b);
  ModuleLibrary lib = ModuleLibrary::standard();
  const double h4 = cost::estimate_cost(e.data_path, lib, 4).total();
  const double h8 = cost::estimate_cost(e.data_path, lib, 8).total();
  const double h16 = cost::estimate_cost(e.data_path, lib, 16).total();
  EXPECT_LT(h4, h8);
  EXPECT_LT(h8, h16);
}

TEST(Cost, MergingModulesReducesModuleArea) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::asap(g);
  etpn::Binding before = etpn::Binding::default_binding(g);
  etpn::Etpn e1 = etpn::build_data_path(g, s, before);
  ModuleLibrary lib = ModuleLibrary::standard();
  const double m1 = cost::estimate_cost(e1.data_path, lib, 8).module_area;

  etpn::Binding after = before;
  after.merge_modules(g, after.module_of(*g.find_op("N21")),
                      after.module_of(*g.find_op("N22")));
  etpn::Etpn e2 = etpn::build_data_path(g, s, after);
  const double m2 = cost::estimate_cost(e2.data_path, lib, 8).module_area;
  EXPECT_LT(m2, m1);
}

}  // namespace
}  // namespace hlts
