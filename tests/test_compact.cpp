// Tests for static test-set compaction.
#include <gtest/gtest.h>

#include "atpg/atpg.hpp"
#include "atpg/compact.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "rtl/elaborate.hpp"
#include "util/rng.hpp"

namespace hlts {
namespace {

struct TestRig {
  rtl::Elaboration elab;
  int period;
};

TestRig make_setup() {
  dfg::Dfg g = benchmarks::make_ex();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = 4});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  return {rtl::elaborate(design), design.steps() + 1};
}

TEST(Compact, PreservesCoverageAndNeverGrows) {
  TestRig s = make_setup();
  const auto& nl = s.elab.netlist;
  auto universe = atpg::FaultUniverse::collapsed(nl);

  // A deliberately redundant test set: many random sequences.
  Rng rng(11);
  std::vector<atpg::TestSequence> sequences;
  for (int t = 0; t < 20; ++t) {
    atpg::TestSequence seq;
    for (int c = 0; c < 2 * s.period; ++c) {
      atpg::TestVector v(nl.inputs().size());
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
      if (c == 0) v[0] = true;
      seq.push_back(v);
    }
    sequences.push_back(std::move(seq));
  }

  auto r = atpg::compact_test_set(nl, sequences, universe.faults());
  EXPECT_EQ(r.faults_covered_after, r.faults_covered_before);
  EXPECT_LE(r.cycles_after, r.cycles_before);

  // Oracle: the whole set and the kept set, each fault-simulated on its
  // own from the full universe, leave the same faults undetected, and the
  // reported coverage and lengths are theirs.
  atpg::FaultSimulator fsim(nl);
  auto undetected = [&](const std::vector<std::size_t>& indices) {
    std::vector<atpg::Fault> remaining = universe.faults();
    for (std::size_t i : indices) fsim.drop_detected(sequences[i], remaining);
    return remaining;
  };
  auto cycles = [&](const std::vector<std::size_t>& indices) {
    long sum = 0;
    for (std::size_t i : indices) sum += static_cast<long>(sequences[i].size());
    return sum;
  };
  std::vector<std::size_t> all(sequences.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::vector<atpg::Fault> left_by_all = undetected(all);
  EXPECT_EQ(undetected(r.kept), left_by_all);
  EXPECT_EQ(r.faults_covered_before, universe.size() - left_by_all.size());
  EXPECT_EQ(r.cycles_before, cycles(all));
  EXPECT_EQ(r.cycles_after, cycles(r.kept));
  EXPECT_LE(r.kept.size(), sequences.size());
  EXPECT_LT(r.kept.size(), sequences.size())
      << "20 random sequences are never all essential on this design";
  // Kept indices are sorted and unique.
  for (std::size_t i = 1; i < r.kept.size(); ++i) {
    EXPECT_LT(r.kept[i - 1], r.kept[i]);
  }
}

TEST(Compact, EmptySetIsFine) {
  TestRig s = make_setup();
  auto universe = atpg::FaultUniverse::collapsed(s.elab.netlist);
  auto r = atpg::compact_test_set(s.elab.netlist, {}, universe.faults());
  EXPECT_TRUE(r.kept.empty());
  EXPECT_EQ(r.faults_covered_before, 0u);
}

TEST(Compact, OrchestratorCompactionShrinksTestLength) {
  TestRig s = make_setup();
  atpg::AtpgOptions with;
  with.compact = true;
  atpg::AtpgOptions without = with;
  without.compact = false;
  auto r1 = atpg::run_atpg(s.elab.netlist, s.period, with);
  auto r2 = atpg::run_atpg(s.elab.netlist, s.period, without);
  EXPECT_EQ(r1.detected(), r2.detected());  // same generation, same coverage
  EXPECT_LE(r1.test_cycles, r2.test_cycles);
  EXPECT_EQ(r2.test_cycles, r2.uncompacted_cycles);
  EXPECT_EQ(r1.uncompacted_cycles, r2.uncompacted_cycles);
  // The final set re-simulated must reach the reported coverage.
  atpg::FaultSimulator fsim(s.elab.netlist);
  auto universe = atpg::FaultUniverse::collapsed(s.elab.netlist);
  std::vector<atpg::Fault> remaining = universe.faults();
  for (const auto& seq : r1.test_set) fsim.drop_detected(seq, remaining);
  EXPECT_EQ(universe.size() - remaining.size(), r1.detected());
}

}  // namespace
}  // namespace hlts
