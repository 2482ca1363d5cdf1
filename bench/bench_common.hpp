// Shared driver for the table benches: run a synthesis flow, elaborate to
// gates, run the bounded-effort ATPG over several seeds, and average the
// paper's three test metrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "core/flows.hpp"
#include "dfg/dfg.hpp"
#include "report/table.hpp"
#include "rtl/elaborate.hpp"
#include "rtl/rtl.hpp"

namespace hlts::bench {

inline volatile std::uint64_t reference_sink = 0;

/// CPU seconds of the calling thread for one run of a fixed reference loop:
/// graph searches, map inserts and a sort over about 0.6 MB -- the loop
/// perfbench's ScaledTimer times (perfbench/common.cpp).  A bench records
/// it beside its timings, so that timings taken on different days can be
/// compared at the machine's speed of each day.
inline double reference_kernel_seconds() {
  const auto thread_cpu = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  };
  const double t0 = thread_cpu();
  std::uint64_t x = 88172645463325252ULL;  // xorshift64
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  constexpr std::uint64_t kNodes = 1 << 12;
  std::vector<std::vector<std::uint64_t>> adj(kNodes);
  for (std::uint64_t i = 0; i < 4 * kNodes; ++i) {
    adj[next() % kNodes].push_back(next() % kNodes);
  }
  std::uint64_t sum = 0;
  std::vector<int> dist(kNodes);
  std::vector<std::uint64_t> queue;
  for (std::uint64_t src = 0; src < 16; ++src) {
    std::fill(dist.begin(), dist.end(), -1);
    queue.assign(1, src);
    dist[src] = 0;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      for (const std::uint64_t v : adj[queue[h]]) {
        if (dist[v] < 0) {
          dist[v] = dist[queue[h]] + 1;
          queue.push_back(v);
          sum += v;
        }
      }
    }
  }
  std::map<std::uint64_t, std::uint64_t> counts;
  for (std::uint64_t i = 0; i < 4000; ++i) counts[next() % 100000] += i;
  for (const auto& [k, v] : counts) sum += k ^ v;
  std::vector<std::uint64_t> values(40000);
  for (std::uint64_t& v : values) v = next();
  std::sort(values.begin(), values.end());
  reference_sink = sum + values[values.size() / 2];
  return thread_cpu() - t0;
}

/// The fastest of `runs` runs of reference_kernel_seconds(): interference
/// only ever slows a run down, so the minimum is the steadiest reading of
/// the machine's speed.
inline double reference_kernel_min(int runs) {
  double best = reference_kernel_seconds();
  for (int i = 1; i < runs; ++i) {
    best = std::min(best, reference_kernel_seconds());
  }
  return best;
}

/// The Algorithm-1 parameters used for the paper-table benches.
///
/// The paper reports (k, alpha, beta) = (3,2,1) / (3,10,1) / (3,1,10) for
/// its 4/8/16-bit runs and notes "the chosen parameters do not influence so
/// much the final results".  Those triples are tied to the original
/// implementation's cost units; in our units (dE in control steps, dH in
/// 0.01 mm^2) the equivalent emphasis is (5, 2, 1), which reproduces the
/// paper's reported Ex/Diffeq allocations and is used at every width.  The
/// ablation_kab bench sweeps the parameters to test the insensitivity
/// claim.
inline core::FlowParams paper_params(int bits) {
  core::FlowParams p;
  p.bits = bits;
  p.k = 5;
  p.alpha = 2;
  p.beta = 1;
  return p;
}

/// Seed-averaged ATPG metrics for one synthesized design.
struct TestMetrics {
  double coverage = 0;
  double tg_time_ms = 0;
  double test_cycles = 0;
  std::size_t faults = 0;
  std::size_t gate_count = 0;
};

inline TestMetrics evaluate_testability(const dfg::Dfg& g,
                                        const core::FlowResult& flow, int bits,
                                        int num_seeds,
                                        const atpg::AtpgOptions& base = {}) {
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, bits);
  rtl::Elaboration elab = rtl::elaborate(design);
  TestMetrics m;
  m.gate_count = elab.netlist.stats().gates;
  for (int s = 0; s < num_seeds; ++s) {
    atpg::AtpgOptions options = base;
    options.seed = base.seed + static_cast<std::uint64_t>(s) * 7919;
    atpg::AtpgResult r =
        atpg::run_atpg(elab.netlist, design.steps() + 1, options);
    m.coverage += r.fault_coverage;
    m.tg_time_ms += r.tg_time_ms;
    m.test_cycles += static_cast<double>(r.test_cycles);
    m.faults = r.total_faults;
  }
  m.coverage /= num_seeds;
  m.tg_time_ms /= num_seeds;
  m.test_cycles /= num_seeds;
  return m;
}

/// Renders one paper-style table (Tables 1-3): four flows x three widths.
inline void run_paper_table(const std::string& title, const dfg::Dfg& g,
                            bool include_area, int num_seeds) {
  std::vector<std::string> header{"Synthesis", "Module allocation",
                                  "Register allocation", "#Mux", "#Bit",
                                  "Fault coverage", "TG time (ms)",
                                  "Test cycles"};
  if (include_area) header.push_back("Area (mm^2)");
  report::Table table(header);

  bool first_flow = true;
  for (core::FlowKind kind :
       {core::FlowKind::Camad, core::FlowKind::Approach1,
        core::FlowKind::Approach2, core::FlowKind::Ours}) {
    if (!first_flow) table.add_separator();
    first_flow = false;
    bool first_width = true;
    for (int bits : {4, 8, 16}) {
      core::FlowParams params = paper_params(bits);
      core::FlowResult flow = core::run_flow(kind, g, params);
      TestMetrics m = evaluate_testability(g, flow, bits, num_seeds);

      std::vector<std::string> row;
      row.push_back(first_width ? flow.name : "");
      // The allocation columns describe the (width-independent) structure;
      // print them on the first width row only, like the paper does.
      std::string mods;
      std::string regs;
      if (first_width) {
        for (const auto& s : flow.module_allocation) {
          mods += (mods.empty() ? "" : "; ") + s;
        }
        for (const auto& s : flow.register_allocation) {
          regs += (regs.empty() ? "" : "; ") + s;
        }
      }
      row.push_back(mods);
      row.push_back(regs);
      row.push_back(first_width ? report::fmt_int(flow.muxes) : "");
      row.push_back(report::fmt_int(bits));
      row.push_back(report::fmt_percent(m.coverage));
      row.push_back(report::fmt_double(m.tg_time_ms, 1));
      row.push_back(report::fmt_int(static_cast<long>(m.test_cycles)));
      if (include_area) {
        row.push_back(report::fmt_double(flow.cost.total(), 3));
      }
      table.add_row(std::move(row));
      first_width = false;
    }
  }
  std::cout << title << "\n" << table.render() << "\n";
}

}  // namespace hlts::bench
