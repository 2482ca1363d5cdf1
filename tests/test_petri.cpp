// Unit tests for the timed Petri net test oracle (support/reference_petri):
// firing semantics, reachability tree, 1-safety, deadlock detection, and
// critical-path extraction.
#include <gtest/gtest.h>

#include "support/reference_petri.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace hlts {
namespace {

namespace petri = test_support::petri;
using petri::Marking;
using petri::PetriNet;
using petri::PlaceId;
using petri::TransId;

/// S0 -> S1 -> S2 chain with S0 initially marked.
PetriNet chain3() {
  PetriNet net("chain");
  PlaceId s0 = net.add_place("S0", 0, true);
  PlaceId s1 = net.add_place("S1", 1);
  PlaceId s2 = net.add_place("S2", 1);
  net.add_transition("t01", {s0}, {s1});
  net.add_transition("t12", {s1}, {s2});
  return net;
}

TEST(Petri, FiringMovesToken) {
  PetriNet net = chain3();
  Marking m = net.initial_marking();
  EXPECT_TRUE(m.has(PlaceId{0}));
  EXPECT_TRUE(net.enabled(TransId{0}, m));
  EXPECT_FALSE(net.enabled(TransId{1}, m));
  Marking m2 = net.fire(TransId{0}, m);
  EXPECT_FALSE(m2.has(PlaceId{0}));
  EXPECT_TRUE(m2.has(PlaceId{1}));
}

TEST(Petri, ReachabilityOfChain) {
  PetriNet net = chain3();
  petri::ReachabilityTree tree(net);
  EXPECT_EQ(tree.size(), 3u);  // {S0}, {S1}, {S2}
  EXPECT_FALSE(tree.has_deadlock());  // terminates in a sink place
  Marking final_m(net.num_places());
  final_m.set(PlaceId{2});
  EXPECT_TRUE(tree.reaches(final_m));
}

TEST(Petri, CriticalPathOfChain) {
  PetriNet net = chain3();
  auto cp = petri::critical_path(net);
  EXPECT_EQ(cp.length, 2);  // S0 has delay 0, S1 + S2 one each
  EXPECT_EQ(cp.places.size(), 3u);
}

TEST(Petri, ForkJoinCriticalPathTakesLongerBranch) {
  PetriNet net("forkjoin");
  PlaceId s = net.add_place("s", 0, true);
  PlaceId a1 = net.add_place("a1", 1);
  PlaceId a2 = net.add_place("a2", 1);
  PlaceId b = net.add_place("b", 1);
  PlaceId join = net.add_place("j", 1);
  net.add_transition("fork", {s}, {a1, b});
  net.add_transition("a12", {a1}, {a2});
  net.add_transition("join", {a2, b}, {join});
  // Long branch: s -> a1 -> a2 -> join = 0+1+1+1; short: s -> b -> join.
  auto cp = petri::critical_path(net);
  EXPECT_EQ(cp.length, 3);

  petri::ReachabilityTree tree(net);
  EXPECT_FALSE(tree.has_deadlock());
  // Markings: {s}, {a1,b}, {a2,b}, {j}.
  EXPECT_EQ(tree.size(), 4u);
}

TEST(Petri, LoopTraversedOnceForCriticalPath) {
  PetriNet net("loop");
  PlaceId s0 = net.add_place("S0", 0, true);
  PlaceId s1 = net.add_place("S1", 1);
  PlaceId s2 = net.add_place("S2", 1);
  PlaceId done = net.add_place("done", 0);
  net.add_transition("t01", {s0}, {s1});
  net.add_transition("t12", {s1}, {s2});
  net.add_transition("loop", {s2}, {s1}, /*guard_group=*/1, true);
  net.add_transition("exit", {s2}, {done}, /*guard_group=*/1, false);
  auto cp = petri::critical_path(net);
  EXPECT_EQ(cp.length, 2);  // S1 + S2, loop back-arc not retraversed
}

TEST(Petri, UnsafeNetRejected) {
  PetriNet net("unsafe");
  PlaceId a = net.add_place("a", 1, true);
  PlaceId b = net.add_place("b", 1, true);
  PlaceId c = net.add_place("c", 1);
  net.add_transition("ta", {a}, {c});
  net.add_transition("tb", {b}, {c});
  // Firing ta then tb puts a second token into c.
  EXPECT_THROW(petri::ReachabilityTree tree(net), Error);
}

TEST(Petri, DeadlockDetected) {
  PetriNet net("dead");
  PlaceId a = net.add_place("a", 1, true);
  PlaceId b = net.add_place("b", 1);  // never marked
  PlaceId c = net.add_place("c", 1);
  net.add_transition("t", {a, b}, {c});
  petri::ReachabilityTree tree(net);
  // 'a' is marked but the only transition needs 'b' too, and 'a' is not a
  // sink place -> deadlock.
  EXPECT_TRUE(tree.has_deadlock());
}

TEST(Petri, TransitionNeedsPlaces) {
  PetriNet net;
  PlaceId a = net.add_place("a", 1, true);
  EXPECT_THROW(net.add_transition("bad", {}, {a}), Error);
  EXPECT_THROW(net.add_transition("bad2", {a}, {}), Error);
}

TEST(Petri, NodeBoundEnforced) {
  // A 12-place fully parallel net has 2^12 markings; a small bound trips.
  PetriNet net("big");
  std::vector<PlaceId> starts;
  for (int i = 0; i < 12; ++i) {
    PlaceId p = net.add_place(hlts::cat("p", std::to_string(i)), 1, true);
    PlaceId q = net.add_place(hlts::cat("q", std::to_string(i)), 1);
    net.add_transition(hlts::cat("t", std::to_string(i)), {p}, {q});
    starts.push_back(p);
  }
  EXPECT_THROW(petri::ReachabilityTree tree(net, /*max_nodes=*/100), Error);
}

TEST(Petri, DotRendering) {
  PetriNet net = chain3();
  std::string dot = net.to_dot();
  EXPECT_NE(dot.find("S0 *"), std::string::npos);  // initial marking starred
  EXPECT_NE(dot.find("t01"), std::string::npos);
}

}  // namespace
}  // namespace hlts
