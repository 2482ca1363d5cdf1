// Regenerates Figure 1: the controllability/observability enhancement
// strategy.  Two compatible operations are merged into one module; the
// merge-sort rescheduler must pick an execution order.  SR2 prefers the
// order that executes the operation with the more controllable operands
// first, which (a) keeps the schedule short and (b) realizes the
// sequential-depth reduction the sharing enables.
#include <iostream>

#include "core/resched.hpp"
#include "etpn/etpn.hpp"
#include "report/schedule_view.hpp"
#include "sched/schedule.hpp"

int main() {
  using namespace hlts;

  // A fragment shaped like the paper's Figure 1: N1 consumes only derived
  // values (its result register sits at sequential depth 2 from the primary
  // inputs), N2 consumes a primary input; both are of the same kind and
  // initially scheduled in the same control step, so the merger forces an
  // ordering decision.
  dfg::Dfg g("fig1");
  dfg::VarId a = g.add_input("a");
  dfg::VarId b = g.add_input("b");
  dfg::VarId c = g.add_input("c");
  dfg::VarId d = g.add_input("d");
  g.add_op_new_var("N0a", dfg::OpKind::Mul, {a, b}, "w");
  g.add_op_new_var("N0b", dfg::OpKind::Mul, {c, d}, "u");
  g.add_op_new_var("N1", dfg::OpKind::Sub,
                   {*g.find_var("w"), *g.find_var("u")}, "x");
  g.add_op_new_var("N2", dfg::OpKind::Sub, {a, *g.find_var("u")}, "y");
  g.add_op_new_var("N3", dfg::OpKind::Add,
                   {*g.find_var("x"), *g.find_var("y")}, "s");
  g.mark_output(*g.find_var("s"), /*registered=*/true);
  g.validate();

  sched::Schedule before = sched::asap(g);
  etpn::Binding binding = etpn::Binding::default_binding(g);
  etpn::Etpn before_etpn = etpn::build_data_path(g, before, binding);
  const auto depth_before = before_etpn.data_path.sequential_depth();

  // The paper's Figure 1 quantity: the sequential depth from a controllable
  // register (one loaded from a primary input) to the register holding x.
  auto depth_to_x = [&](const etpn::Etpn& e, const etpn::Binding& b2) {
    const auto dist = e.data_path.register_distances();
    etpn::RegId rx = b2.reg_of(*g.find_var("x"));
    return dist.d_in[e.reg_node[rx].index()];
  };

  std::cout << "Figure 1: controllability/observability enhancement\n\n";
  std::cout << "(a) before the merger (default allocation):\n";
  std::cout << report::render_schedule(g, before, binding);
  std::cout << "sequential depth: max " << depth_before.max_depth << ", total "
            << depth_before.total_depth
            << "; depth from a controllable register to R(x): "
            << depth_to_x(before_etpn, binding) << "\n\n";

  // Merge the two additions into one module; reschedule with SR1/SR2.
  binding.merge_modules(g, binding.module_of(*g.find_op("N1")),
                        binding.module_of(*g.find_op("N2")));
  for (core::OrderStrategy strategy :
       {core::OrderStrategy::Testability, core::OrderStrategy::Plain}) {
    core::ReschedOutcome out = core::reschedule(g, binding, before, strategy);
    if (!out.feasible) {
      std::cout << "infeasible\n";
      continue;
    }
    etpn::Etpn e = etpn::build_data_path(g, out.schedule, binding);
    const auto depth = e.data_path.sequential_depth();
    std::cout << "(b) after merging N1 and N2, "
              << (strategy == core::OrderStrategy::Testability
                      ? "SR1/SR2 order"
                      : "plain order")
              << ":\n";
    std::cout << report::render_schedule(g, out.schedule, binding);
    std::cout << "schedule length: " << out.schedule.length()
              << ", sequential depth: max " << depth.max_depth << ", total "
              << depth.total_depth
              << "; depth from a controllable register to R(x): "
              << depth_to_x(e, binding) << "\n\n";
  }
  return 0;
}
