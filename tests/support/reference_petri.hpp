// Timed Petri net engine and the ETPN control part, kept as a test oracle.
//
// The control part of an ETPN design is a timed Petri net with restricted
// firing rules [Peng & Kuchcinski 1994; Peterson 1981].  Places correspond
// to control steps (a marked place activates the data transfers it guards);
// transitions move the token(s) between steps.  The paper takes the
// execution time E from the net: "the minimum execution time E is equal to
// the length of the critical path ... The method to detect the critical
// path is based on the reachability tree of the Petri net model."
//
// The library takes E (and so the paper's dE) from Schedule::length()
// instead: the control part build_control() derives from a schedule is a
// chain of unit-delay step places, so its critical path is the step count.
// control_matches_schedule() checks exactly that on the designs the tests
// visit, through the reachability tree and critical_path() below.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/dfg.hpp"
#include "sched/schedule.hpp"
#include "util/ids.hpp"

namespace hlts::test_support::petri {

struct PlaceTag {};
struct TransTag {};
using PlaceId = Id<PlaceTag>;
using TransId = Id<TransTag>;

/// A place holds a token for `delay` time units before its output
/// transitions may consume it (timed-place semantics).
struct Place {
  std::string name;
  int delay = 1;
  bool initially_marked = false;
  std::vector<TransId> out_transitions;
  std::vector<TransId> in_transitions;
};

/// A transition fires when every input place is marked; firing is atomic
/// and takes no time itself.
struct Transition {
  std::string name;
  std::vector<PlaceId> inputs;
  std::vector<PlaceId> outputs;
  /// Guarded transitions model condition signals from the data path; two
  /// transitions with the same nonzero guard group and opposite polarity are
  /// mutually exclusive (only one can fire for a given condition value).
  int guard_group = 0;
  bool guard_polarity = true;
};

/// A marking of a (1-safe) net: a bitset over places.
class Marking {
 public:
  Marking() = default;
  explicit Marking(std::size_t num_places)
      : bits_((num_places + 63) / 64, 0), num_places_(num_places) {}

  [[nodiscard]] bool has(PlaceId p) const {
    return (bits_[p.index() / 64] >> (p.index() % 64)) & 1u;
  }
  void set(PlaceId p) { bits_[p.index() / 64] |= (std::uint64_t{1} << (p.index() % 64)); }
  void clear(PlaceId p) {
    bits_[p.index() / 64] &= ~(std::uint64_t{1} << (p.index() % 64));
  }
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] std::size_t num_places() const { return num_places_; }

  friend bool operator==(const Marking&, const Marking&) = default;
  [[nodiscard]] std::size_t hash() const;

 private:
  std::vector<std::uint64_t> bits_;
  std::size_t num_places_ = 0;
};

/// The Petri net structure.
class PetriNet {
 public:
  explicit PetriNet(std::string name = "control") : name_(std::move(name)) {}

  PlaceId add_place(const std::string& name, int delay = 1,
                    bool initially_marked = false);
  TransId add_transition(const std::string& name,
                         const std::vector<PlaceId>& inputs,
                         const std::vector<PlaceId>& outputs,
                         int guard_group = 0, bool guard_polarity = true);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_places() const { return places_.size(); }
  [[nodiscard]] std::size_t num_transitions() const { return transitions_.size(); }
  [[nodiscard]] const Place& place(PlaceId p) const { return places_[p]; }
  [[nodiscard]] const Transition& transition(TransId t) const {
    return transitions_[t];
  }
  [[nodiscard]] IdRange<PlaceId> place_ids() const {
    return id_range<PlaceId>(places_.size());
  }
  [[nodiscard]] IdRange<TransId> trans_ids() const {
    return id_range<TransId>(transitions_.size());
  }

  [[nodiscard]] Marking initial_marking() const;
  [[nodiscard]] bool enabled(TransId t, const Marking& m) const;
  /// Fires `t` in `m` (precondition: enabled); returns successor marking.
  [[nodiscard]] Marking fire(TransId t, const Marking& m) const;

  /// Places with no outgoing transitions (final places).
  [[nodiscard]] std::vector<PlaceId> sink_places() const;
  /// Places that are initially marked.
  [[nodiscard]] std::vector<PlaceId> source_places() const;

  /// Structural check used by tests: every transition has >=1 input and
  /// >=1 output place.
  void validate() const;

  [[nodiscard]] std::string to_dot() const;

 private:
  std::string name_;
  IndexVec<PlaceId, Place> places_;
  IndexVec<TransId, Transition> transitions_;
};

/// One node of the reachability tree (really a reachability *graph*: visited
/// markings are shared, as in Peterson's "reachability set").
struct ReachNode {
  Marking marking;
  int parent = -1;           ///< index of predecessor node, -1 for root
  TransId via;               ///< transition fired to reach this node
  std::vector<int> children; ///< successor node indices
};

/// Reachability analysis of a 1-safe net.
class ReachabilityTree {
 public:
  /// Explores from the initial marking, up to `max_nodes` distinct markings.
  /// Throws hlts::Error if the bound is exceeded or 1-safety is violated.
  ReachabilityTree(const PetriNet& net, std::size_t max_nodes = 100000);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const ReachNode& node(std::size_t i) const { return nodes_[i]; }

  /// True if some reachable marking enables no transition and holds a token
  /// outside the sink places (a marking of sink places only has terminated).
  [[nodiscard]] bool has_deadlock() const;
  /// True if `m` is reachable.
  [[nodiscard]] bool reaches(const Marking& m) const;

 private:
  const PetriNet& net_;
  std::vector<ReachNode> nodes_;
};

/// Critical-path (minimum-execution-time) analysis.
///
/// The longest place-delay-weighted path from the initially marked places,
/// found on the place graph (an arc p -> q wherever a transition consumes
/// from p and produces into q) with the back edges of a depth-first search
/// from those places dropped, so a loop counts once.  The path ends at the
/// farthest sink place, or at the farthest place of a net without sinks.
/// It never builds the reachability tree.  On a fork/join net it takes the
/// longer branch; on the chain that build_control() derives from a schedule
/// it is the number of steps.
struct CriticalPathResult {
  int length = 0;                   ///< total delay along the critical path
  std::vector<PlaceId> places;      ///< places on one critical path, in order
};

[[nodiscard]] CriticalPathResult critical_path(const PetriNet& net);

}  // namespace hlts::test_support::petri

namespace hlts::test_support {

/// The control part of a scheduled design.
struct ControlNet {
  petri::PetriNet net;
  /// Control place of each step (index = step; step 0 is the PI load step).
  std::vector<petri::PlaceId> step_place;
  /// True when the net carries the guarded loop and exit transitions.
  bool looped = false;
};

/// A chain of control places S0 (load, delay 0, marked) .. S`length` (delay
/// 1 each).  With `loop_on_condition`, a DFG that produces a comparison
/// condition output, and `length` >= 1, the last step also loops back to S1
/// under a guarded transition (modelling e.g. Diffeq's `while (x < a)`
/// iteration) and exits under the opposite guard to a final place "done".
[[nodiscard]] ControlNet build_control(const dfg::Dfg& g, int length,
                                       bool loop_on_condition = false);

/// Succeeds when the control part of schedule `s` agrees with its length L:
/// the chain's reachability tree has no deadlock and exactly L + 1
/// markings, and its critical path is L.  Where build_control() adds the
/// loop on `g`'s condition output, the looped net must also be deadlock
/// free, with L + 2 markings (the final place's one added) and the same
/// critical path L.
[[nodiscard]] ::testing::AssertionResult control_matches_schedule(
    const dfg::Dfg& g, const sched::Schedule& s);

}  // namespace hlts::test_support
