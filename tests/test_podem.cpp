// Differential tests of time-frame PODEM (label: podem).
//
// atpg::TimeFramePodem keeps one unrolled model per instance and rewinds
// it through an undo trail: the good machine is implied once, a target
// adds its fault cone on top, restarts undo to the target's base mark,
// and the D-frontier is maintained from the nodes each step touched.
// None of that may change a result.  The frozen from-scratch copy in
// tests/support/reference_podem.hpp is the oracle: status, backtrack count
// and test sequence of generate(), and the verdict of check_sequence(),
// must match it bit for bit on
//  - every target run_atpg's timeframe mode visits on the paper designs
//    (ex, dct, diffeq, paulin, tseng x four flows, 4 bits, seed 1), with
//    the walk itself checked against run_atpg;
//  - every collapsed fault of seeded random sequential netlists, at one
//    frame and at two nominal periods, under backtrack limits 1, 8, 64;
//  - random input sequences, interleaved with generate() on the same
//    instance so a check never starts from a fresh model.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/faults.hpp"
#include "atpg/podem.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "rtl/elaborate.hpp"
#include "rtl/rtl.hpp"
#include "support/netlist_fixtures.hpp"
#include "support/reference_podem.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace hlts {
namespace {

using atpg::PodemResult;
using atpg::PodemStatus;
using test_support::random_netlist;
using test_support::ReferencePodem;

/// Fails unless the two results are identical; returns the match.
bool same_result(const PodemResult& got, const PodemResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_EQ(got.backtracks, want.backtracks) << what;
  EXPECT_EQ(got.sequence, want.sequence) << what;
  return got.status == want.status && got.backtracks == want.backtracks &&
         got.sequence == want.sequence;
}

struct Tally {
  int detected = 0, untestable = 0, aborted = 0;
  void add(PodemStatus s) {
    if (s == PodemStatus::Detected) ++detected;
    if (s == PodemStatus::Untestable) ++untestable;
    if (s == PodemStatus::Aborted) ++aborted;
  }
};

/// Replays run_atpg's timeframe target walk on every flow of `benchmark`
/// with the production and the frozen PODEM side by side.
Tally replay_paper_targets(const char* benchmark) {
  const dfg::Dfg g = benchmarks::make_benchmark(benchmark);
  Tally tally;
  for (const core::FlowKind kind :
       {core::FlowKind::Camad, core::FlowKind::Approach1,
        core::FlowKind::Approach2, core::FlowKind::Ours}) {
    const core::FlowResult flow =
        core::run_flow(kind, g, {.bits = 4, .num_threads = 1});
    const rtl::RtlDesign design =
        rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
    const rtl::Elaboration elab = rtl::elaborate(design);
    const gates::Netlist& nl = elab.netlist;
    const int period = design.steps() + 1;
    const std::string where =
        std::string(benchmark) + "/" + core::flow_name(kind);

    atpg::AtpgOptions options;
    options.backend = "timeframe";
    options.seed = 1;
    // The deterministic phase walks what the random phase leaves, in order.
    atpg::AtpgOptions random_only = options;
    random_only.deterministic_phase = false;
    random_only.compact = false;
    const std::vector<atpg::Fault> worklist =
        atpg::run_atpg(nl, period, random_only).undetected;

    atpg::TimeFramePodem podem(nl, 2 * period);
    ReferencePodem reference(nl, 2 * period);
    atpg::FaultSimulator fsim(nl);
    std::vector<atpg::Fault> remaining = worklist;
    std::size_t targets = 0;
    for (const atpg::Fault& target : worklist) {
      if (static_cast<int>(targets) >= options.podem_max_targets) break;
      if (std::find(remaining.begin(), remaining.end(), target) ==
          remaining.end()) {
        continue;
      }
      ++targets;
      const PodemResult got =
          podem.generate(target, options.podem_backtrack_limit);
      const PodemResult want =
          reference.generate(target, options.podem_backtrack_limit);
      if (!same_result(got, want, where + " " + atpg::fault_name(nl, target))) {
        return tally;
      }
      tally.add(got.status);
      if (got.status == PodemStatus::Detected) {
        fsim.drop_detected(got.sequence, remaining);
      }
    }
    // The walk above is run_atpg's own: it visits as many targets and
    // leaves the same faults undetected.
    const atpg::AtpgResult full = atpg::run_atpg(nl, period, options);
    EXPECT_EQ(full.backend_stats.targets, targets) << where;
    EXPECT_TRUE(full.undetected == remaining) << where;
  }
  return tally;
}

class PaperTargets : public ::testing::TestWithParam<const char*> {};

TEST_P(PaperTargets, MatchFrozenPodem) {
  const Tally t = replay_paper_targets(GetParam());
  // Every verdict occurs on every benchmark, so each comparison bites.
  EXPECT_GT(t.detected, 0);
  EXPECT_GT(t.untestable, 0);
  EXPECT_GT(t.aborted, 0);
}

INSTANTIATE_TEST_SUITE_P(
    PodemDifferential, PaperTargets,
    ::testing::Values("ex", "dct", "diffeq", "paulin", "tseng"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(PodemDifferential, RandomNetlistsEveryFaultFramesAndLimits) {
  // Nominal controller period of the random netlists: frames {1, 2 * 3}.
  constexpr int kPeriod = 3;
  Rng rng(0x90DE3);
  Tally tally;
  for (int trial = 0; trial < 24; ++trial) {
    const gates::Netlist nl =
        random_netlist(rng, 4, 24, 3, /*with_reset=*/trial % 2 == 1);
    const atpg::FaultUniverse universe = atpg::FaultUniverse::collapsed(nl);
    for (const int frames : {1, 2 * kPeriod}) {
      atpg::TimeFramePodem podem(nl, frames);
      ReferencePodem reference(nl, frames);
      for (const int limit : {1, 8, 64}) {
        for (const atpg::Fault& f : universe.faults()) {
          const PodemResult got = podem.generate(f, limit);
          const PodemResult want = reference.generate(f, limit);
          ASSERT_TRUE(same_result(
              got, want,
              "trial " + std::to_string(trial) + " frames " +
                  std::to_string(frames) + " limit " + std::to_string(limit) +
                  " " + atpg::fault_name(nl, f)));
          tally.add(got.status);
        }
      }
    }
  }
  // Every verdict must occur, or the comparison would not bite.
  EXPECT_GT(tally.detected, 100);
  EXPECT_GT(tally.untestable, 10);
  EXPECT_GT(tally.aborted, 10);
}

/// A random input sequence of `cycles` vectors for `nl`.
atpg::TestSequence random_sequence(const gates::Netlist& nl, int cycles,
                                   Rng& rng) {
  atpg::TestSequence seq;
  for (int c = 0; c < cycles; ++c) {
    atpg::TestVector v(nl.inputs().size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
    seq.push_back(std::move(v));
  }
  return seq;
}

TEST(PodemDifferential, CheckSequenceMatchesFrozenPodemOnRandomSequences) {
  // Sequences shorter than the frame bound leave the tail X, longer ones
  // are cut; reset comes from the sequence, not forced.  Each check runs
  // on an instance that just generated for another fault.
  constexpr int kFrames = 6;
  Rng rng(4242);
  int hits = 0;
  int misses = 0;
  for (int trial = 0; trial < 16; ++trial) {
    const gates::Netlist nl =
        random_netlist(rng, 4, 24, 3, /*with_reset=*/trial % 2 == 0);
    const std::vector<atpg::Fault> faults =
        atpg::FaultUniverse::collapsed(nl).faults();
    atpg::TimeFramePodem podem(nl, kFrames);
    ReferencePodem reference(nl, kFrames);
    for (const atpg::Fault& f : faults) {
      const atpg::Fault& other =
          faults[static_cast<std::size_t>(rng.next_below(faults.size()))];
      const PodemResult generated = podem.generate(other, 8);
      if (generated.status == PodemStatus::Detected) {
        // A generated test detects its fault in the model it came from.
        EXPECT_TRUE(podem.check_sequence(other, generated.sequence))
            << atpg::fault_name(nl, other);
      }
      const int cycles = static_cast<int>(rng.next_below(kFrames + 3));
      const atpg::TestSequence seq = random_sequence(nl, cycles, rng);
      const bool got = podem.check_sequence(f, seq);
      EXPECT_EQ(got, reference.check_sequence(f, seq))
          << "trial " << trial << " " << atpg::fault_name(nl, f)
          << " cycles " << cycles;
      (got ? hits : misses) += 1;
    }
  }
  EXPECT_GT(hits, 50);
  EXPECT_GT(misses, 50);
}

TEST(PodemDifferential, CheckSequenceMatchesFrozenPodemOnPaulin) {
  const dfg::Dfg g = benchmarks::make_paulin();
  const core::FlowResult flow =
      core::run_flow(core::FlowKind::Ours, g, {.bits = 4});
  const rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  const rtl::Elaboration elab = rtl::elaborate(design);
  const gates::Netlist& nl = elab.netlist;
  const int frames = 2 * (design.steps() + 1);
  const std::vector<atpg::Fault> faults =
      atpg::FaultUniverse::collapsed(nl).faults();
  atpg::TimeFramePodem podem(nl, frames);
  ReferencePodem reference(nl, frames);
  Rng rng(99);
  int hits = 0;
  for (int trial = 0; trial < 4; ++trial) {
    atpg::TestSequence seq = random_sequence(nl, frames, rng);
    seq[0][0] = true;  // reset is input 0 by construction
    for (std::size_t i = 0; i < faults.size(); i += 7) {
      const bool got = podem.check_sequence(faults[i], seq);
      EXPECT_EQ(got, reference.check_sequence(faults[i], seq))
          << atpg::fault_name(nl, faults[i]);
      hits += got ? 1 : 0;
    }
  }
  EXPECT_GT(hits, 20);
}

TEST(PodemCounters, AttemptsAndBacktracksAreCountedPerTarget) {
  // o = a OR (a AND b): the AND output sa0 is redundant, so every restart
  // runs and spends its budget.
  gates::Netlist nl;
  const gates::GateId a = nl.add_input("a");
  const gates::GateId b = nl.add_input("b");
  const gates::GateId g1 = nl.add_gate(gates::GateKind::And, {a, b});
  const gates::GateId g2 = nl.add_gate(gates::GateKind::Or, {a, g1});
  nl.add_output(g2, "o");
  atpg::TimeFramePodem podem(nl, 1);
  util::Trace trace;
  PodemResult redundant;
  PodemResult easy;
  {
    const util::Trace::Scope scope(&trace);
    redundant = podem.generate({g1, false}, 30);
    easy = podem.generate({g2, false}, 30);
  }
  const util::TraceSnapshot snap = trace.snapshot();
  ASSERT_EQ(easy.status, PodemStatus::Detected);
  const int attempts = redundant.status == PodemStatus::Untestable ? 1 : 3;
  EXPECT_EQ(snap.counters.at("atpg.podem_attempts"), attempts + 1);
  EXPECT_EQ(snap.counters.at("atpg.podem_backtracks"),
            redundant.backtracks + easy.backtracks);
}

}  // namespace
}  // namespace hlts
