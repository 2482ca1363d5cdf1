// google-benchmark micro-benchmarks for the analysis/simulation kernels:
// testability fixpoint, Petri-net reachability + critical path, netlist
// simplification, parallel fault simulation, and one full Algorithm 1 run.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "atpg/fault_sim.hpp"
#include "atpg/faults.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "etpn/patch.hpp"
#include "gates/simplify.hpp"
#include "petri/petri.hpp"
#include "rtl/elaborate.hpp"
#include "sched/schedule.hpp"
#include "testability/testability.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Heap-allocation counter (configure with -DHLTS_COUNT_ALLOCS=ON).
//
// Replaces the global operator new/delete pair with counting wrappers so the
// trial-inner-loop benchmark below can assert its zero-allocation contract:
// after warm-up, a merge-patch apply/revert cycle must perform no heap
// allocations at all (the workspace arena and the pool tails absorb
// everything).  Reported as the `allocs_per_iter` counter; without the
// option the counter is absent and the hooks compile away.
// ---------------------------------------------------------------------------
#ifdef HLTS_COUNT_ALLOCS

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // HLTS_COUNT_ALLOCS

namespace {

using namespace hlts;

std::uint64_t alloc_count() {
#ifdef HLTS_COUNT_ALLOCS
  return g_alloc_count.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

void report_allocs(benchmark::State& state, std::uint64_t before) {
#ifdef HLTS_COUNT_ALLOCS
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_count() - before),
      benchmark::Counter::kAvgIterations);
#else
  (void)state;
  (void)before;
#endif
}

void BM_TestabilityFixpoint(benchmark::State& state) {
  dfg::Dfg g = benchmarks::make_ewf();
  sched::Schedule s = sched::asap(g);
  etpn::Binding b = etpn::Binding::default_binding(g);
  etpn::Etpn e = etpn::build_etpn(g, s, b);
  for (auto _ : state) {
    testability::TestabilityAnalysis analysis(e.data_path);
    benchmark::DoNotOptimize(analysis.balance_index());
  }
}
BENCHMARK(BM_TestabilityFixpoint);

void BM_ReachabilityTree(benchmark::State& state) {
  dfg::Dfg g = benchmarks::make_diffeq();
  sched::Schedule s = sched::asap(g);
  etpn::Binding b = etpn::Binding::default_binding(g);
  etpn::Etpn e = etpn::build_etpn(g, s, b, {.loop_on_condition = true});
  for (auto _ : state) {
    petri::ReachabilityTree tree(e.control);
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_ReachabilityTree);

void BM_CriticalPath(benchmark::State& state) {
  dfg::Dfg g = benchmarks::make_ewf();
  sched::Schedule s = sched::asap(g);
  etpn::Binding b = etpn::Binding::default_binding(g);
  etpn::Etpn e = etpn::build_etpn(g, s, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(petri::critical_path(e.control).length);
  }
}
BENCHMARK(BM_CriticalPath);

void BM_Simplify(benchmark::State& state) {
  dfg::Dfg g = benchmarks::make_diffeq();
  core::FlowResult r = core::run_flow(core::FlowKind::Ours, g, {.bits = 8});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, r.schedule, r.binding, 8);
  // Re-elaborate inside the loop would double-simplify; measure on the raw
  // netlist by re-running elaborate's core via from-scratch design.
  for (auto _ : state) {
    rtl::Elaboration e = rtl::elaborate(design);
    benchmark::DoNotOptimize(e.netlist.num_gates());
  }
}
BENCHMARK(BM_Simplify);

void BM_FaultSimulation(benchmark::State& state) {
  dfg::Dfg g = benchmarks::make_ex();
  core::FlowResult r = core::run_flow(core::FlowKind::Ours, g, {.bits = 8});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, r.schedule, r.binding, 8);
  rtl::Elaboration elab = rtl::elaborate(design);
  atpg::FaultUniverse universe = atpg::FaultUniverse::collapsed(elab.netlist);
  std::vector<atpg::Fault> faults = universe.faults();
  Rng rng(7);
  atpg::TestSequence seq;
  for (int c = 0; c < 12; ++c) {
    atpg::TestVector v(elab.netlist.inputs().size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
    if (c == 0) v[0] = true;  // reset
    seq.push_back(v);
  }
  atpg::FaultSimulator fsim(elab.netlist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.detected_by(seq, faults).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_FaultSimulation);

/// Steady-state trial inner loop: apply one merge patch onto the SoA data
/// path and revert it, with the undo log carved from a reused arena.
/// Contract: zero heap allocations per iteration after warm-up.
void BM_MergePatchRevert(benchmark::State& state) {
  dfg::Dfg g = benchmarks::make_ewf();
  sched::Schedule s = sched::asap(g);
  etpn::Binding b = etpn::Binding::default_binding(g);
  etpn::Etpn e = etpn::build_etpn(g, s, b);
  etpn::DataPath& dp = e.data_path;

  // Merge the first two alive module nodes -- structurally representative
  // of what every Algorithm 1 trial does.
  etpn::DpNodeId into = etpn::DpNodeId::invalid();
  etpn::DpNodeId from = etpn::DpNodeId::invalid();
  for (etpn::DpNodeId n : dp.node_ids()) {
    if (!dp.alive(n) || dp.node(n).kind != etpn::DpNodeKind::Module) continue;
    if (!into.valid()) {
      into = n;
    } else {
      from = n;
      break;
    }
  }

  util::Arena arena;
  {
    // Warm-up: grow the arena blocks and the pool tail slack once.
    etpn::MergePatch p = etpn::apply_merge_patch(dp, arena, into, from);
    etpn::revert_merge_patch(dp, p);
    arena.reset();
  }
  const std::uint64_t before = alloc_count();
  for (auto _ : state) {
    etpn::MergePatch p = etpn::apply_merge_patch(dp, arena, into, from);
    etpn::revert_merge_patch(dp, p);
    arena.reset();
    benchmark::DoNotOptimize(p.arcs_deduped);
  }
  report_allocs(state, before);
}
BENCHMARK(BM_MergePatchRevert);

void BM_IntegratedSynthesis(benchmark::State& state) {
  dfg::Dfg g = benchmarks::make_diffeq();
  for (auto _ : state) {
    core::FlowResult r = core::run_flow(core::FlowKind::Ours, g, {.bits = 8});
    benchmark::DoNotOptimize(r.registers);
  }
}
BENCHMARK(BM_IntegratedSynthesis);

}  // namespace

BENCHMARK_MAIN();
