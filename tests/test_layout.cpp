// Data-layout tests for the trial-arena / SoA / wide-packet refactor
// (`ctest -L layout`):
//
//   - alignment audit of every POD the patch path carves from util::Arena
//     and of the wide simulation packets;
//   - bit-identity matrix: FaultSimulator's 256-lane detection at threads
//     {1, 4} against a test-local 64-lane WideSimulator<1> reference on
//     every benchmark, and the synthesis trajectory over threads {1, 4},
//     whose serial reference run is replayed against the from-scratch
//     Algorithm-1 reference step;
//   - arena reuse across trials: the workspace arena's footprint plateaus
//     after the first merge-patch apply/revert cycle;
//   - checkpoint/resume under the SoA data path: a resumed run is
//     bit-identical to the uninterrupted one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "atpg/faults.hpp"
#include "atpg/packet.hpp"
#include "atpg/wide_sim.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/checkpoint.hpp"
#include "core/flows.hpp"
#include "core/synthesis.hpp"
#include "etpn/etpn.hpp"
#include "etpn/patch.hpp"
#include "rtl/elaborate.hpp"
#include "rtl/rtl.hpp"
#include "sched/schedule.hpp"
#include "support/reference_synthesis.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace hlts {
namespace {

const std::vector<std::string> kBenchmarks = {"ex",  "dct",    "diffeq",
                                              "ewf", "paulin", "tseng"};

/// Restores (or unsets) one environment variable on scope exit.
struct EnvGuard {
  std::string name;
  std::optional<std::string> saved;
  explicit EnvGuard(std::string n) : name(std::move(n)) {
    const char* v = std::getenv(name.c_str());
    if (v != nullptr) saved = v;
  }
  ~EnvGuard() {
    if (saved) {
      ::setenv(name.c_str(), saved->c_str(), 1);
    } else {
      ::unsetenv(name.c_str());
    }
  }
};

// --- alignment audit --------------------------------------------------------

// Every POD the merge-patch undo log and its worklists carve from the
// workspace arena, plus the wide simulation packets.  The arena serves any
// alignment up to alignof(std::max_align_t); these asserts are the audit
// that no carve type needs more (and that growth-by-memcpy is legal).
template <typename T>
constexpr bool arena_safe =
    std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T> &&
    alignof(T) <= alignof(std::max_align_t);

static_assert(arena_safe<etpn::PoolSpan>);
static_assert(arena_safe<etpn::MergePatch::ArcState>);
static_assert(arena_safe<etpn::MergePatch::NodeState>);
static_assert(arena_safe<etpn::DpArcId>);
static_assert(arena_safe<etpn::DpNodeId>);
static_assert(arena_safe<int>);
static_assert(arena_safe<atpg::Packet<1>>);
static_assert(arena_safe<atpg::Packet<4>>);

// Packets are flat word arrays: W*8 bytes, word alignment, no padding --
// the layout the autovectorizer and any future arena-carved plane storage
// rely on.
static_assert(sizeof(atpg::Packet<1>) == 8);
static_assert(sizeof(atpg::Packet<4>) == 32);
static_assert(alignof(atpg::Packet<4>) == alignof(std::uint64_t));
static_assert(atpg::Packet<1>::kLanes == 64);
static_assert(atpg::Packet<4>::kLanes == 256);

TEST(LayoutAudit, ArenaCarvesAreAligned) {
  util::Arena arena;
  for (const std::size_t align : {1u, 2u, 4u, 8u, 16u}) {
    for (int i = 0; i < 32; ++i) {
      void* p = arena.allocate(static_cast<std::size_t>(i) + 1, align);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << "align=" << align << " i=" << i;
    }
  }
  auto* spans = arena.alloc_array<etpn::PoolSpan>(7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(spans) %
                alignof(etpn::PoolSpan),
            0u);
  auto* packets = arena.alloc_array<atpg::Packet<4>>(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(packets) %
                alignof(atpg::Packet<4>),
            0u);
}

TEST(LayoutAudit, PacketLaneOpsMatchWordSemantics) {
  atpg::Packet<4> p = atpg::Packet<4>::zero();
  EXPECT_FALSE(p.any());
  p.set_lane(0);
  p.set_lane(63);
  p.set_lane(64);   // word 1 bit 0
  p.set_lane(255);  // word 3 bit 63
  EXPECT_TRUE(p.lane(0) && p.lane(63) && p.lane(64) && p.lane(255));
  EXPECT_FALSE(p.lane(1) || p.lane(128));
  EXPECT_EQ(p.w[0], (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(p.w[1], 1u);
  EXPECT_EQ(p.w[2], 0u);
  EXPECT_EQ(p.w[3], std::uint64_t{1} << 63);

  const atpg::Packet<4> ones = atpg::Packet<4>::ones();
  EXPECT_EQ(p & ones, p);
  EXPECT_EQ(p | atpg::Packet<4>::zero(), p);
  EXPECT_EQ(~(~p), p);
  EXPECT_EQ(p ^ p, atpg::Packet<4>::zero());
  EXPECT_EQ(atpg::Packet<4>::broadcast(true), ones);
  EXPECT_EQ(atpg::Packet<4>::broadcast(false), atpg::Packet<4>::zero());
  EXPECT_NE(p, ones);
}

// --- fault-sim bit-identity matrix ------------------------------------------

struct ElabFixture {
  rtl::Elaboration elab;
  std::vector<atpg::Fault> faults;
  atpg::TestSequence seq;
};

ElabFixture elaborate_benchmark(const std::string& name) {
  const dfg::Dfg g = benchmarks::make_benchmark(name);
  const core::FlowResult r =
      core::run_flow(core::FlowKind::Ours, g, {.bits = 8});
  const rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, r.schedule, r.binding, 8);
  ElabFixture f{rtl::elaborate(design), {}, {}};
  f.faults = atpg::FaultUniverse::collapsed(f.elab.netlist).faults();
  Rng rng(23);
  const int cycles = 2 * (r.exec_time + 1);
  for (int c = 0; c < cycles; ++c) {
    atpg::TestVector v(f.elab.netlist.inputs().size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
    if (c == 0 && !v.empty()) v[0] = true;  // reset
    f.seq.push_back(v);
  }
  return f;
}

/// The lane-contract reference: `faults` in 63-fault batches through the
/// single-word WideSimulator<1>, every batch run over the whole sequence
/// (no early exit).  FaultSimulator's 255-fault WideSimulator<4> batches
/// must detect exactly this set.
std::vector<std::size_t> reference_detected(
    const gates::Netlist& nl, const atpg::TestSequence& seq,
    const std::vector<atpg::Fault>& faults) {
  constexpr std::size_t kCap = atpg::WideSimulator<1>::kLanes - 1;
  atpg::WideSimulator<1> sim(nl);
  std::vector<std::size_t> detected;
  for (std::size_t base = 0; base < faults.size(); base += kCap) {
    const std::size_t batch = std::min(kCap, faults.size() - base);
    sim.clear_faults();
    for (std::size_t i = 0; i < batch; ++i) {
      sim.inject(static_cast<int>(i + 1), faults[base + i]);
    }
    sim.reset_state();
    atpg::Packet<1> caught = atpg::Packet<1>::zero();
    for (const atpg::TestVector& v : seq) caught |= sim.step(v);
    for (std::size_t i = 0; i < batch; ++i) {
      if (caught.lane(static_cast<int>(i + 1))) detected.push_back(base + i);
    }
  }
  return detected;
}

TEST(FaultSimLayout, DetectionBitIdenticalAcrossWidthsAndThreads) {
  for (const std::string& name : kBenchmarks) {
    const ElabFixture f = elaborate_benchmark(name);
    const std::vector<std::size_t> expected =
        reference_detected(f.elab.netlist, f.seq, f.faults);
    EXPECT_FALSE(expected.empty()) << name;
    for (const int threads : {1, 4}) {
      atpg::FaultSimulator fsim(f.elab.netlist, threads);
      EXPECT_EQ(fsim.detected_by(f.seq, f.faults), expected)
          << name << " threads=" << threads;
    }
  }
}

TEST(FaultSimLayout, BatchCapacityDerivesFromPacketWidth) {
  static_assert(atpg::WideSimulator<1>::kLanes == 64);
  static_assert(atpg::WideSimulator<4>::kLanes == 256);

  const ElabFixture f = elaborate_benchmark("ex");
  // The top fault lane of each width is usable; one past it is not, and
  // lane 0 is reserved for the good machine.
  atpg::WideSimulator<4> sim(f.elab.netlist);
  sim.inject(255, f.faults.front());
  EXPECT_THROW(sim.inject(256, f.faults.front()), Error);
  EXPECT_THROW(sim.inject(0, f.faults.front()), Error);
  atpg::WideSimulator<1> narrow(f.elab.netlist);
  narrow.inject(63, f.faults.front());
  EXPECT_THROW(narrow.inject(64, f.faults.front()), Error);
  EXPECT_THROW(narrow.inject(0, f.faults.front()), Error);
}

// The packet width is fixed: an HLTS_SIMD_WIDTH left in the environment by
// older scripts changes nothing, down to the lane-evaluation count.
TEST(FaultSimLayout, WidthResolution) {
  const ElabFixture f = elaborate_benchmark("ex");
  EnvGuard guard("HLTS_SIMD_WIDTH");
  ::unsetenv("HLTS_SIMD_WIDTH");
  atpg::FaultSimulator unset(f.elab.netlist, /*num_threads=*/1);
  const std::vector<std::size_t> expected = unset.detected_by(f.seq, f.faults);
  ::setenv("HLTS_SIMD_WIDTH", "64", 1);
  atpg::FaultSimulator stale(f.elab.netlist, /*num_threads=*/1);
  EXPECT_EQ(stale.detected_by(f.seq, f.faults), expected);
  EXPECT_EQ(stale.gate_lane_evals(), unset.gate_lane_evals());
}

// --- synthesis bit-identity matrix ------------------------------------------

/// Exact signature of a run: every committed merger with its bitwise cost
/// numbers (same scheme as bench_synthesis_scale).
std::string signature(const core::SynthesisResult& r) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& rec : r.trajectory) {
    os << rec.description << ';' << rec.exec_time << ';' << rec.hw_cost << ';'
       << rec.delta_c << '|';
  }
  os << "final;" << r.exec_time << ';' << r.cost.total();
  return os.str();
}

// The trajectory of the incremental Algorithm-1 step is the same at every
// thread count; the serial run is replayed against the reference.
TEST(SynthesisLayout, TrajectoryBitIdenticalAcrossWidthThreadsIncremental) {
  for (const std::string& name : kBenchmarks) {
    const dfg::Dfg g = benchmarks::make_benchmark(name);
    core::SynthesisParams reference_params;
    reference_params.bits = 8;
    reference_params.num_threads = 1;
    // The serial default run is the matrix's reference, itself checked
    // iteration by iteration against the from-scratch reference step.
    const std::string expected = signature(
        test_support::replay_against_reference(g, reference_params));
    for (const int threads : {1, 4}) {
      core::SynthesisParams p = reference_params;
      p.num_threads = threads;
      EXPECT_EQ(signature(core::integrated_synthesis(g, p)), expected)
          << name << " threads=" << threads;
    }
  }
}

// --- arena reuse across trials ----------------------------------------------

TEST(ArenaLayout, WorkspaceArenaPlateausAcrossTrials) {
  const dfg::Dfg g = benchmarks::make_ewf();
  const sched::Schedule s = sched::asap(g);
  const etpn::Binding b = etpn::Binding::default_binding(g);
  etpn::Etpn e = etpn::build_data_path(g, s, b);
  etpn::DataPath& dp = e.data_path;

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
  ASSERT_TRUE(into.valid() && from.valid());

  const std::size_t arc_pool_before = dp.arc_pool_size();
  const std::size_t step_pool_before = dp.step_pool_size();

  util::Arena arena;
  std::size_t reserved_after_first = 0;
  std::size_t blocks_after_first = 0;
  for (int trial = 0; trial < 64; ++trial) {
    {
      const etpn::MergePatch patch =
          etpn::apply_merge_patch(dp, arena, into, from);
      etpn::revert_merge_patch(dp, patch);
    }
    arena.reset();
    // Revert restores the pool tails exactly: the next trial carves the
    // same region again instead of growing the pools without bound.
    EXPECT_EQ(dp.arc_pool_size(), arc_pool_before) << "trial " << trial;
    EXPECT_EQ(dp.step_pool_size(), step_pool_before) << "trial " << trial;
    EXPECT_EQ(arena.bytes_used(), 0u) << "trial " << trial;
    if (trial == 0) {
      reserved_after_first = arena.bytes_reserved();
      blocks_after_first = arena.num_blocks();
    } else {
      // Steady state: reset() retained every block, so no re-growth.
      EXPECT_EQ(arena.bytes_reserved(), reserved_after_first)
          << "trial " << trial;
      EXPECT_EQ(arena.num_blocks(), blocks_after_first) << "trial " << trial;
    }
  }
}

// --- checkpoint/resume under the SoA layout ---------------------------------

TEST(CheckpointLayout, ResumeBitIdenticalUnderSoA) {
  const dfg::Dfg g = benchmarks::make_benchmark("dct");
  core::FlowParams params;
  params.num_threads = 1;
  const core::FlowResult full = core::run_flow(core::FlowKind::Ours, g, params);

  std::vector<core::Checkpoint> ckpts;
  core::FlowParams recording = params;
  recording.checkpoint_every = 2;
  recording.on_checkpoint = [&](const core::Checkpoint& c) {
    ckpts.push_back(c);
  };
  (void)core::run_flow(core::FlowKind::Ours, g, recording);
  ASSERT_FALSE(ckpts.empty());

  // Resume from every boundary: the checkpointed schedule + binding are
  // re-materialized through build_data_path (compacted pools, SoA spans) and
  // must reproduce the uninterrupted run exactly.
  for (const core::Checkpoint& c : ckpts) {
    core::FlowParams resume = params;
    resume.resume_from = &c;
    const core::FlowResult resumed =
        core::run_flow(core::FlowKind::Ours, g, resume);
    EXPECT_EQ(full.exec_time, resumed.exec_time);
    EXPECT_EQ(full.registers, resumed.registers);
    EXPECT_EQ(full.modules, resumed.modules);
    EXPECT_EQ(full.muxes, resumed.muxes);
    EXPECT_EQ(full.cost.total(), resumed.cost.total());
    EXPECT_TRUE(full.schedule == resumed.schedule);
    EXPECT_EQ(full.module_allocation, resumed.module_allocation);
    EXPECT_EQ(full.register_allocation, resumed.register_allocation);
    EXPECT_EQ(full.iterations, resumed.iterations);
    EXPECT_EQ(full.stop_reason, resumed.stop_reason);
  }
}

}  // namespace
}  // namespace hlts
