// Tests for the BIST wrapper: structure, functional transparency, and
// self-test coverage.
#include <gtest/gtest.h>

#include "atpg/bist.hpp"
#include "atpg/wide_sim.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "rtl/elaborate.hpp"
#include "util/rng.hpp"

namespace hlts {
namespace {

struct Rig {
  dfg::Dfg g;
  rtl::RtlDesign design;
};

Rig make_rig(int bits) {
  dfg::Dfg g = benchmarks::make_ex();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = bits});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, bits);
  return {std::move(g), std::move(design)};
}

rtl::Elaboration elaborate_bist(const rtl::RtlDesign& design) {
  rtl::ElaborateOptions options;
  options.bist = true;
  return rtl::elaborate(design, options);
}

TEST(Bist, AddsModeInputAndMisrOutputs) {
  Rig rig = make_rig(4);
  rtl::Elaboration plain = rtl::elaborate(rig.design);
  rtl::Elaboration bist = elaborate_bist(rig.design);
  EXPECT_EQ(bist.netlist.stats().primary_inputs,
            plain.netlist.stats().primary_inputs + 1);  // bist_mode
  EXPECT_EQ(bist.netlist.stats().primary_outputs,
            plain.netlist.stats().primary_outputs + 4);  // misr word
  EXPECT_GT(bist.netlist.stats().flip_flops,
            plain.netlist.stats().flip_flops);  // LFSRs + MISR
}

TEST(Bist, FunctionallyTransparentWhenModeLow) {
  // With bist_mode low, the wrapped machine must behave exactly like the
  // plain one on the shared outputs, cycle by cycle, under random stimulus.
  Rig rig = make_rig(4);
  rtl::Elaboration plain = rtl::elaborate(rig.design);
  rtl::Elaboration bist = elaborate_bist(rig.design);
  atpg::WideSimulator<1> sim_p(plain.netlist);
  atpg::WideSimulator<1> sim_b(bist.netlist);
  sim_p.reset_state();
  sim_b.reset_state();

  Rng rng(321);
  for (int cycle = 0; cycle < 30; ++cycle) {
    atpg::TestVector vp(plain.netlist.inputs().size());
    atpg::TestVector vb(bist.netlist.inputs().size(), false);
    // Drive identical values by input name; bist_mode stays 0.
    for (std::size_t i = 0; i < vp.size(); ++i) {
      vp[i] = rng.next_bool();
      const std::string& name = plain.netlist.gate(plain.netlist.inputs()[i]).name;
      for (std::size_t j = 0; j < vb.size(); ++j) {
        if (bist.netlist.gate(bist.netlist.inputs()[j]).name == name) {
          vb[j] = vp[i];
        }
      }
    }
    if (cycle == 0) {
      vp[0] = vb[0] = true;  // reset (input 0 by construction)
    }
    sim_p.step(vp);
    sim_b.step(vb);
    for (std::size_t i = 0; i < plain.netlist.outputs().size(); ++i) {
      const auto op = plain.netlist.outputs()[i];
      const std::string& name = plain.netlist.gate(op).name;
      for (auto ob : bist.netlist.outputs()) {
        if (bist.netlist.gate(ob).name != name) continue;
        EXPECT_EQ(sim_p.plane_one(op).lane(0), sim_b.plane_one(ob).lane(0))
            << name << " cycle " << cycle;
        EXPECT_EQ(sim_p.plane_zero(op).lane(0), sim_b.plane_zero(ob).lane(0))
            << name << " cycle " << cycle;
      }
    }
  }
}

TEST(Bist, SelfTestDetectsMostFaults) {
  Rig rig = make_rig(4);
  rtl::Elaboration bist = elaborate_bist(rig.design);
  atpg::BistResult r = atpg::run_bist(bist.netlist, 300);
  EXPECT_GT(r.total_faults, 500u);
  EXPECT_GT(r.coverage, 0.75) << "LFSR patterns should reach most faults";
  EXPECT_LE(r.coverage, 1.0);
  // More cycles never hurt.
  atpg::BistResult longer = atpg::run_bist(bist.netlist, 600);
  EXPECT_GE(longer.detected, r.detected);
}

TEST(Bist, RequiresBistNetlist) {
  Rig rig = make_rig(4);
  rtl::Elaboration plain = rtl::elaborate(rig.design);
  EXPECT_THROW((void)atpg::run_bist(plain.netlist, 100), Error);
}

}  // namespace
}  // namespace hlts
