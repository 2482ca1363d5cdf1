// Extension study: test-point insertion (the "improvement" companion of the
// paper's testability-analysis reference, Gu et al. [3]).
//
// For each flow's synthesized design, the analysis ranks registers by their
// controllability/observability balance; the worst N become DFT test points
// (observation taps or test-mode control muxes), and the bench measures
// what they buy in fault coverage and test-generation effort.  A design
// synthesized *for* testability (Ours) should need its test points less
// than the connectivity-driven baseline.
//
//   ./ablation_testpoints [bits] [seeds]
#include <cstdlib>
#include <iostream>

#include "bench_common.hpp"
#include "benchmarks/benchmarks.hpp"
#include "testability/test_points.hpp"

int main(int argc, char** argv) {
  using namespace hlts;
  const int bits = argc > 1 ? std::atoi(argv[1]) : 8;
  const int seeds = argc > 2 ? std::atoi(argv[2]) : 3;

  report::Table table({"benchmark", "flow", "test points", "faults",
                       "coverage", "tg (ms)"});
  for (const char* name : {"dct", "diffeq"}) {
    dfg::Dfg g = benchmarks::make_benchmark(name);
    core::FlowParams params = bench::paper_params(bits);
    for (core::FlowKind kind : {core::FlowKind::Camad, core::FlowKind::Ours}) {
      core::FlowResult flow = core::run_flow(kind, g, params);
      rtl::RtlDesign design = rtl::RtlDesign::from_synthesis(
          g, flow.schedule, flow.binding, bits);

      // Rank registers; map etpn::RegId to RtlRegId positionally (both
      // follow Binding::alive_regs order).
      etpn::Etpn e = etpn::build_data_path(g, flow.schedule, flow.binding);
      testability::TestabilityAnalysis analysis(e.data_path);
      auto suggestions = testability::suggest_test_points(e, analysis, 4);
      std::vector<etpn::RegId> alive = flow.binding.alive_regs();
      auto rtl_reg_of = [&](etpn::RegId r) {
        for (std::size_t i = 0; i < alive.size(); ++i) {
          if (alive[i] == r) return rtl::RtlRegId{static_cast<uint32_t>(i)};
        }
        throw Error("register not found");
      };

      for (int n_points : {0, 2, 4}) {
        rtl::ElaborateOptions options;
        for (int i = 0; i < n_points && i < static_cast<int>(suggestions.size());
             ++i) {
          options.test_points.push_back(
              {rtl_reg_of(suggestions[i].reg),
               suggestions[i].kind == testability::TestPointKind::Control});
        }
        rtl::Elaboration elab = rtl::elaborate(design, options);
        double coverage = 0, tg = 0;
        std::size_t faults = 0;
        for (int s = 0; s < seeds; ++s) {
          atpg::AtpgOptions ao;
          ao.seed = 1 + static_cast<std::uint64_t>(s) * 7919;
          atpg::AtpgResult r =
              atpg::run_atpg(elab.netlist, design.steps() + 1, ao);
          coverage += r.fault_coverage;
          tg += r.tg_time_ms;
          faults = r.total_faults;
        }
        table.add_row({name, flow.name, report::fmt_int(n_points),
                       report::fmt_int(static_cast<long>(faults)),
                       report::fmt_percent(coverage / seeds),
                       report::fmt_double(tg / seeds, 1)});
      }
    }
    table.add_separator();
  }
  std::cout << "Extension: testability-guided test-point insertion\n"
            << table.render();
  return 0;
}
