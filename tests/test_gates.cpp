// Unit tests for the gate-level netlist and the word-level constructors:
// exhaustive 4-bit arithmetic checks against reference integer math, run
// through the three-valued simulator.
#include <gtest/gtest.h>

#include "atpg/wide_sim.hpp"
#include "gates/netlist.hpp"
#include "util/error.hpp"
#include "gates/wordlib.hpp"

namespace hlts {
namespace {

using gates::GateId;
using gates::GateKind;
using gates::Netlist;
using gates::Word;

TEST(Netlist, BasicConstruction) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId x = nl.add_gate(GateKind::And, {a, b});
  nl.add_output(x, "o");
  nl.validate();
  EXPECT_EQ(nl.stats().primary_inputs, 2u);
  EXPECT_EQ(nl.stats().primary_outputs, 1u);
  EXPECT_EQ(nl.stats().combinational, 1u);  // the AND gate (pads not counted)
}

TEST(Netlist, DffMustBeConnected) {
  Netlist nl;
  GateId d = nl.add_dff("r");
  EXPECT_THROW(nl.validate(), Error);
  GateId a = nl.add_input("a");
  nl.connect_dff(d, a);
  nl.add_output(d, "o");
  nl.validate();
  EXPECT_EQ(nl.stats().flip_flops, 1u);
}

TEST(Netlist, CombinationalCycleRejected) {
  Netlist nl;
  GateId a = nl.add_input("a");
  // Build a cycle through two ANDs using a placeholder trick: create the
  // gates, then form the loop via a DFF-free path.
  GateId g1 = nl.add_gate(GateKind::And, {a, a});
  GateId g2 = nl.add_gate(GateKind::And, {g1, a});
  // Manually force a cycle is impossible through the public API (inputs are
  // fixed at construction), which is itself the invariant: appending can
  // only reference existing gates, so combinational cycles cannot form.
  nl.add_output(g2, "o");
  nl.validate();
  SUCCEED();
}

TEST(Netlist, DffBreaksCycles) {
  Netlist nl;
  GateId d = nl.add_dff("state");
  GateId inv = nl.add_gate(GateKind::Not, {d});
  nl.connect_dff(d, inv);  // classic toggle flop: legal
  nl.add_output(d, "o");
  nl.validate();
  EXPECT_EQ(nl.levelized().size(), 2u);  // not + output
}

/// Evaluates a combinational word circuit on concrete inputs via the
/// simulator (no DFFs involved).
class WordFixture : public ::testing::Test {
 protected:
  std::uint64_t run(Netlist& nl, const Word& out, std::uint64_t a,
                    std::uint64_t b, const Word& wa, const Word& wb) {
    atpg::WideSimulator<1> sim(nl);
    atpg::TestVector v(nl.inputs().size(), false);
    auto set_word = [&](const Word& w, std::uint64_t value) {
      for (std::size_t i = 0; i < w.size(); ++i) {
        // inputs() order matches creation order.
        for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
          if (nl.inputs()[k] == w[i]) v[k] = (value >> i) & 1;
        }
      }
    };
    set_word(wa, a);
    set_word(wb, b);
    sim.step(v);
    std::uint64_t result = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_TRUE((sim.plane_one(out[i]) | sim.plane_zero(out[i])).lane(0))
          << "undefined output bit";
      result |= (sim.plane_one(out[i]).w[0] & 1) << i;
    }
    return result;
  }
};

TEST_F(WordFixture, AdderExhaustive4Bit) {
  Netlist nl;
  Word a = gates::add_input_word(nl, "a", 4);
  Word b = gates::add_input_word(nl, "b", 4);
  Word s = gates::ripple_add(nl, a, b);
  gates::add_output_word(nl, s, "s");
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(run(nl, s, x, y, a, b), (x + y) & 0xf) << x << "+" << y;
    }
  }
}

TEST_F(WordFixture, SubtractorExhaustive4Bit) {
  Netlist nl;
  Word a = gates::add_input_word(nl, "a", 4);
  Word b = gates::add_input_word(nl, "b", 4);
  Word s = gates::ripple_sub(nl, a, b);
  gates::add_output_word(nl, s, "s");
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(run(nl, s, x, y, a, b), (x - y) & 0xf);
    }
  }
}

TEST_F(WordFixture, MultiplierExhaustive4Bit) {
  Netlist nl;
  Word a = gates::add_input_word(nl, "a", 4);
  Word b = gates::add_input_word(nl, "b", 4);
  Word p = gates::array_multiply(nl, a, b);
  gates::add_output_word(nl, p, "p");
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(run(nl, p, x, y, a, b), (x * y) & 0xf);
    }
  }
}

TEST_F(WordFixture, DividerExhaustive4Bit) {
  Netlist nl;
  Word a = gates::add_input_word(nl, "a", 4);
  Word b = gates::add_input_word(nl, "b", 4);
  Word q = gates::array_divide(nl, a, b);
  gates::add_output_word(nl, q, "q");
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      const std::uint64_t expect = y == 0 ? 0xf : x / y;
      EXPECT_EQ(run(nl, q, x, y, a, b), expect) << x << "/" << y;
    }
  }
}

TEST_F(WordFixture, ComparatorsExhaustive4Bit) {
  Netlist nl;
  Word a = gates::add_input_word(nl, "a", 4);
  Word b = gates::add_input_word(nl, "b", 4);
  Word lt = gates::bit_to_word(nl, gates::less_than(nl, a, b), 1);
  Word gt = gates::bit_to_word(nl, gates::greater_than(nl, a, b), 1);
  Word eq = gates::bit_to_word(nl, gates::equal(nl, a, b), 1);
  gates::add_output_word(nl, lt, "lt");
  gates::add_output_word(nl, gt, "gt");
  gates::add_output_word(nl, eq, "eq");
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(run(nl, lt, x, y, a, b), x < y ? 1u : 0u);
      EXPECT_EQ(run(nl, gt, x, y, a, b), x > y ? 1u : 0u);
      EXPECT_EQ(run(nl, eq, x, y, a, b), x == y ? 1u : 0u);
    }
  }
}

TEST_F(WordFixture, BitwiseAndMux) {
  Netlist nl;
  Word a = gates::add_input_word(nl, "a", 4);
  Word b = gates::add_input_word(nl, "b", 4);
  Word x_and = gates::word_and(nl, a, b);
  Word x_or = gates::word_or(nl, a, b);
  Word x_xor = gates::word_xor(nl, a, b);
  Word x_not = gates::word_not(nl, a);
  GateId sel = nl.add_input("sel");
  Word x_mux = gates::mux_word(nl, sel, a, b);
  for (const auto& [w, name] :
       {std::pair{x_and, "and"}, {x_or, "or"}, {x_xor, "xor"}, {x_not, "not"},
        {x_mux, "mux"}}) {
    gates::add_output_word(nl, w, name);
  }
  for (std::uint64_t x : {0ull, 5ull, 10ull, 15ull}) {
    for (std::uint64_t y : {0ull, 3ull, 12ull, 15ull}) {
      EXPECT_EQ(run(nl, x_and, x, y, a, b), x & y);
      EXPECT_EQ(run(nl, x_or, x, y, a, b), x | y);
      EXPECT_EQ(run(nl, x_xor, x, y, a, b), x ^ y);
      EXPECT_EQ(run(nl, x_not, x, y, a, b), ~x & 0xf);
      EXPECT_EQ(run(nl, x_mux, x, y, a, b), x);  // sel defaults to 0
    }
  }
}


TEST_F(WordFixture, KoggeStoneAdderExhaustive4Bit) {
  Netlist nl;
  Word a = gates::add_input_word(nl, "a", 4);
  Word b = gates::add_input_word(nl, "b", 4);
  Word s = gates::kogge_stone_add(nl, a, b);
  gates::add_output_word(nl, s, "s");
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(run(nl, s, x, y, a, b), (x + y) & 0xf) << x << "+" << y;
    }
  }
}

TEST_F(WordFixture, KoggeStoneSubtracterExhaustive4Bit) {
  Netlist nl;
  Word a = gates::add_input_word(nl, "a", 4);
  Word b = gates::add_input_word(nl, "b", 4);
  Word s = gates::kogge_stone_sub(nl, a, b);
  gates::add_output_word(nl, s, "s");
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(run(nl, s, x, y, a, b), (x - y) & 0xf) << x << "-" << y;
    }
  }
}

TEST_F(WordFixture, WallaceMultiplierExhaustive4Bit) {
  Netlist nl;
  Word a = gates::add_input_word(nl, "a", 4);
  Word b = gates::add_input_word(nl, "b", 4);
  Word p = gates::wallace_multiply(nl, a, b);
  gates::add_output_word(nl, p, "p");
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(run(nl, p, x, y, a, b), (x * y) & 0xf) << x << "*" << y;
    }
  }
}

TEST(FastArith, LogDepthBeatsRippleDepthAt16Bits) {
  // Structural property: the Kogge-Stone adder's combinational depth is
  // logarithmic, the ripple adder's linear.
  auto depth_of = [](Netlist& nl, const Word& out) {
    IndexVec<GateId, int> depth(nl.num_gates(), 0);
    for (GateId g : nl.levelized()) {
      for (GateId in : nl.gate(g).inputs) {
        depth[g] = std::max(depth[g], depth[in] + 1);
      }
    }
    int best = 0;
    for (GateId g : out) best = std::max(best, depth[g]);
    return best;
  };
  Netlist ripple;
  Word ra = gates::add_input_word(ripple, "a", 16);
  Word rb = gates::add_input_word(ripple, "b", 16);
  Word rs = gates::ripple_add(ripple, ra, rb);
  gates::add_output_word(ripple, rs, "s");
  Netlist fast;
  Word fa = gates::add_input_word(fast, "a", 16);
  Word fb = gates::add_input_word(fast, "b", 16);
  Word fs = gates::kogge_stone_add(fast, fa, fb);
  gates::add_output_word(fast, fs, "s");
  EXPECT_LT(depth_of(fast, fs), depth_of(ripple, rs));
}

TEST(Wordlib, OnehotSelectPicksEnabledValue) {
  Netlist nl;
  GateId e0 = nl.add_input("e0");
  GateId e1 = nl.add_input("e1");
  Word a = gates::add_input_word(nl, "a", 4);
  Word b = gates::add_input_word(nl, "b", 4);
  Word out = gates::onehot_select(nl, {e0, e1}, {a, b}, 4);
  gates::add_output_word(nl, out, "o");

  atpg::WideSimulator<1> sim(nl);
  atpg::TestVector v(nl.inputs().size(), false);
  // e1 = 1, a = 0101, b = 0011.
  v[1] = true;
  v[2] = true;  // a[0]
  v[4] = true;  // a[2]
  v[6] = true;  // b[0]
  v[7] = true;  // b[1]
  sim.step(v);
  std::uint64_t result = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    result |= (sim.plane_one(out[i]).w[0] & 1) << i;
  }
  EXPECT_EQ(result, 0b0011u);
}

TEST(Wordlib, WidthMismatchRejected) {
  Netlist nl;
  Word a = gates::add_input_word(nl, "a", 4);
  Word b = gates::add_input_word(nl, "b", 3);
  EXPECT_THROW(gates::ripple_add(nl, a, b), Error);
}

}  // namespace
}  // namespace hlts
