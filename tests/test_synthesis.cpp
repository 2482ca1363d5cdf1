// Unit tests for the core algorithm layer: the rescheduler (SR1/SR2 +
// critical-path fallback) and Algorithm 1's iterative merger loop.
#include <gtest/gtest.h>

#include "benchmarks/benchmarks.hpp"
#include "core/resched.hpp"
#include "core/synthesis.hpp"

namespace hlts {
namespace {

using core::OrderStrategy;
using etpn::Binding;

TEST(Resched, NoMergersYieldsAsap) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule hint = sched::asap(g);
  Binding b = Binding::default_binding(g);
  auto out = core::reschedule(g, b, hint, OrderStrategy::Testability);
  ASSERT_TRUE(out.feasible);
  EXPECT_EQ(out.schedule, hint);
}

TEST(Resched, ModuleMergerSeparatesSteps) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule hint = sched::asap(g);
  Binding b = Binding::default_binding(g);
  // N21, N22 both sit in step 1; merging their modules forces a split.
  b.merge_modules(g, b.module_of(*g.find_op("N21")),
                  b.module_of(*g.find_op("N22")));
  auto out = core::reschedule(g, b, hint, OrderStrategy::Testability);
  ASSERT_TRUE(out.feasible);
  EXPECT_NE(out.schedule.step(*g.find_op("N21")),
            out.schedule.step(*g.find_op("N22")));
  EXPECT_TRUE(core::schedule_respects_binding(g, b, out.schedule));
}

TEST(Resched, RegisterMergerSeparatesLifetimes) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule hint = sched::asap(g);
  Binding b = Binding::default_binding(g);
  // u (born S1, dies S2) and z (born S1, dies S2) overlap; merging their
  // registers forces an ordering (u's last use before z's definition).
  b.merge_regs(b.reg_of(*g.find_var("u")), b.reg_of(*g.find_var("z")));
  auto out = core::reschedule(g, b, hint, OrderStrategy::Testability);
  ASSERT_TRUE(out.feasible);
  EXPECT_TRUE(core::schedule_respects_binding(g, b, out.schedule));
}

TEST(Resched, TwoPrimaryInputsInOneRegisterInfeasible) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule hint = sched::asap(g);
  Binding b = Binding::default_binding(g);
  b.merge_regs(b.reg_of(*g.find_var("a")), b.reg_of(*g.find_var("b")));
  auto out = core::reschedule(g, b, hint, OrderStrategy::Testability);
  EXPECT_FALSE(out.feasible);
}

TEST(Resched, ScheduleRespectsBindingCatchesViolations) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::asap(g);
  Binding b = Binding::default_binding(g);
  EXPECT_TRUE(core::schedule_respects_binding(g, b, s));
  b.merge_modules(g, b.module_of(*g.find_op("N21")),
                  b.module_of(*g.find_op("N22")));
  // Both still in step 1 under the old schedule.
  EXPECT_FALSE(core::schedule_respects_binding(g, b, s));
}

TEST(Synthesis, TrajectoryShrinksHardwareMonotonically) {
  dfg::Dfg g = benchmarks::make_diffeq();
  core::SynthesisParams p;
  p.bits = 8;
  core::SynthesisResult r = core::integrated_synthesis(g, p);
  ASSERT_FALSE(r.trajectory.empty());
  // Register + module count never increases along the trajectory.
  int prev = static_cast<int>(g.num_ops()) + 20;
  for (const auto& rec : r.trajectory) {
    EXPECT_LE(rec.registers + rec.modules, prev);
    prev = rec.registers + rec.modules;
    EXPECT_LE(rec.exec_time, g.critical_path_ops() + 1);
  }
}

TEST(Synthesis, LatencyBudgetRespected) {
  dfg::Dfg g = benchmarks::make_ewf();
  core::SynthesisParams p;
  p.bits = 8;
  p.max_latency = g.critical_path_ops() + 3;
  core::SynthesisResult r = core::integrated_synthesis(g, p);
  EXPECT_LE(r.schedule.length(), p.max_latency);
  EXPECT_TRUE(core::schedule_respects_binding(g, r.binding, r.schedule));
}

TEST(Synthesis, PoliciesProduceDifferentDesigns) {
  dfg::Dfg g = benchmarks::make_dct();
  core::SynthesisParams balance;
  balance.bits = 8;
  core::SynthesisParams conn = balance;
  conn.policy = core::SelectionPolicy::Connectivity;
  conn.order = core::OrderStrategy::Plain;
  conn.compat = etpn::ModuleCompat::AluClass;
  conn.require_improvement = true;
  auto r1 = core::integrated_synthesis(g, balance);
  auto r2 = core::integrated_synthesis(g, conn);
  // Both valid...
  EXPECT_TRUE(core::schedule_respects_binding(g, r1.binding, r1.schedule));
  EXPECT_TRUE(core::schedule_respects_binding(g, r2.binding, r2.schedule));
  // ...but structurally different allocations.
  EXPECT_NE(r1.binding.num_alive_regs(), r2.binding.num_alive_regs());
}

TEST(Synthesis, KOneIsMostTestabilityGreedy) {
  // With k = 1 every committed merger is the balance-ranked best; the run
  // must still terminate and produce a consistent design.
  dfg::Dfg g = benchmarks::make_ex();
  core::SynthesisParams p;
  p.bits = 4;
  p.k = 1;
  auto r = core::integrated_synthesis(g, p);
  EXPECT_TRUE(core::schedule_respects_binding(g, r.binding, r.schedule));
  EXPECT_LT(r.binding.num_alive_modules(), 8);
}

TEST(Synthesis, RejectsBadK) {
  dfg::Dfg g = benchmarks::make_ex();
  core::SynthesisParams p;
  p.k = 0;
  EXPECT_THROW(core::integrated_synthesis(g, p), Error);
}

TEST(Synthesis, ConnectivityCandidatesOnlyPositiveCloseness) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::asap(g);
  Binding b = Binding::default_binding(g);
  etpn::Etpn e = etpn::build_data_path(g, s, b);
  auto candidates = core::select_connectivity_candidates(g, b, e, 1000);
  for (const auto& c : candidates) {
    EXPECT_GT(c.score, 0);
  }
}

}  // namespace
}  // namespace hlts
