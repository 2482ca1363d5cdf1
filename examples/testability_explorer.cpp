// Testability-exploration example: watch Algorithm 1 work, merger by
// merger, on a benchmark -- the testability analysis, the balance-ranked
// candidates, and the dE/dH trade-off of every committed transformation.
//
//   ./testability_explorer [benchmark] [bits]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "benchmarks/benchmarks.hpp"
#include "core/synthesis.hpp"
#include "etpn/etpn.hpp"
#include "sched/schedule.hpp"
#include "testability/balance.hpp"

int main(int argc, char** argv) {
  using namespace hlts;

  const std::string bench = argc > 1 ? argv[1] : "diffeq";
  const int bits = argc > 2 ? std::atoi(argv[2]) : 8;

  dfg::Dfg g = benchmarks::make_benchmark(bench);

  // Show the initial per-node testability of the default allocation.
  sched::Schedule s0 = sched::asap(g);
  etpn::Binding b0 = etpn::Binding::default_binding(g);
  etpn::Etpn e0 = etpn::build_data_path(g, s0, b0);
  testability::TestabilityAnalysis analysis(e0.data_path);

  std::cout << "initial testability of '" << bench << "' (default allocation)\n";
  std::cout << std::left << std::setw(28) << "node" << std::right
            << std::setw(8) << "CC" << std::setw(6) << "SC" << std::setw(8)
            << "CO" << std::setw(6) << "SO" << "\n";
  for (etpn::DpNodeId n : e0.data_path.node_ids()) {
    const auto& node = e0.data_path.node(n);
    if (node.kind != etpn::DpNodeKind::Register &&
        node.kind != etpn::DpNodeKind::Module) {
      continue;
    }
    auto c = analysis.node_controllability(n);
    auto o = analysis.node_observability(n);
    std::cout << std::left << std::setw(28)
              << etpn::node_label(g, b0, node).substr(0, 27)
              << std::right << std::fixed << std::setprecision(3)
              << std::setw(8) << c.comb << std::setw(6) << std::setprecision(0)
              << c.seq << std::setw(8) << std::setprecision(3) << o.comb
              << std::setw(6) << std::setprecision(0) << o.seq << "\n";
  }

  // The top balance-ranked merger candidates.
  auto candidates = testability::select_balance_candidates(g, b0, e0, analysis, 5);
  std::cout << "\ntop balance-ranked merger candidates:\n";
  for (const auto& c : candidates) {
    if (c.kind == testability::MergeCandidate::Kind::Modules) {
      std::cout << "  modules   [" << b0.module_label(g, c.module_a) << " | "
                << b0.module_label(g, c.module_b) << "]";
    } else {
      std::cout << "  registers [" << b0.reg_label(g, c.reg_a) << " | "
                << b0.reg_label(g, c.reg_b) << "]";
    }
    std::cout << "  score=" << std::setprecision(3) << c.score
              << (c.creates_self_loop ? "  (self-loop!)" : "") << "\n";
  }

  // Run Algorithm 1 and narrate the committed trajectory.
  core::SynthesisParams params;
  params.bits = bits;
  core::SynthesisResult result = core::integrated_synthesis(g, params);
  std::cout << "\nAlgorithm 1 trajectory (" << result.trajectory.size()
            << " mergers):\n";
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    const auto& rec = result.trajectory[i];
    std::cout << "  " << std::setw(2) << i + 1 << ". " << rec.description
              << "\n      dE=" << std::setprecision(0) << rec.delta_e
              << " steps, dH=" << std::setprecision(2) << rec.delta_h
              << " (x0.01mm^2), E=" << rec.exec_time << ", H="
              << std::setprecision(3) << rec.hw_cost << ", regs="
              << rec.registers << ", modules=" << rec.modules
              << ", balance=" << rec.balance_index << "\n";
  }
  std::cout << "\nfinal: " << result.binding.num_alive_modules()
            << " modules, " << result.binding.num_alive_regs()
            << " registers, " << result.exec_time << " control steps, "
            << std::setprecision(3) << result.cost.total() << " mm^2\n";
  return 0;
}
