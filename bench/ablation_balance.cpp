// Ablation of the two design choices Algorithm 1 adds over a conventional
// transformational flow:
//   - candidate selection: C/O balance principle vs connectivity/closeness,
//   - rescheduling order: SR1/SR2 testability strategy vs plain order.
// 2x2 on the three table benchmarks; reports structure metrics and the
// bounded-effort ATPG coverage.
#include <iostream>

#include "bench_common.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/synthesis.hpp"

int main(int argc, char** argv) {
  using namespace hlts;
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 3;

  report::Table table({"benchmark", "selection", "order", "steps", "regs",
                       "muxes", "self-loops", "balance", "coverage",
                       "tg (ms)"});
  for (const char* name : {"ex", "dct", "diffeq"}) {
    dfg::Dfg g = benchmarks::make_benchmark(name);
    for (auto policy : {core::SelectionPolicy::BalanceTestability,
                        core::SelectionPolicy::Connectivity}) {
      for (auto order :
           {core::OrderStrategy::Testability, core::OrderStrategy::Plain}) {
        core::SynthesisParams p;
        p.bits = 8;
        p.k = 5;
        p.alpha = 10;
        p.beta = 1;
        p.policy = policy;
        p.order = order;
        core::SynthesisResult s = core::integrated_synthesis(g, p);

        etpn::Etpn e = etpn::build_data_path(g, s.schedule, s.binding);
        testability::TestabilityAnalysis analysis(e.data_path);

        core::FlowResult flow;
        flow.schedule = s.schedule;
        flow.binding = s.binding;
        bench::TestMetrics m =
            bench::evaluate_testability(g, flow, p.bits, seeds);

        table.add_row(
            {name,
             policy == core::SelectionPolicy::BalanceTestability
                 ? "balance"
                 : "connectivity",
             order == core::OrderStrategy::Testability ? "SR1/SR2" : "plain",
             report::fmt_int(s.schedule.length()),
             report::fmt_int(s.binding.num_alive_regs()),
             report::fmt_int(e.data_path.mux_count()),
             report::fmt_int(e.data_path.self_loop_count()),
             report::fmt_double(analysis.balance_index(), 3),
             report::fmt_percent(m.coverage), report::fmt_double(m.tg_time_ms, 1)});
      }
    }
    table.add_separator();
  }
  std::cout << "Ablation: balance selection and SR1/SR2 ordering\n"
            << table.render();
  return 0;
}
