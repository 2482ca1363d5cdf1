// Timed Petri net engine.
//
// The control part of an ETPN design is a timed Petri net with restricted
// firing rules [Peng & Kuchcinski 1994; Peterson 1981].  Places correspond
// to control steps (a marked place activates the data transfers it guards);
// transitions move the token(s) between steps.  The paper uses the net for
// execution-time estimation: "the minimum execution time E is equal to the
// length of the critical path ... The method to detect the critical path is
// based on the reachability tree of the Petri net model."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.hpp"

namespace hlts::petri {

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

  /// True if some reachable marking enables no transition at all.
  [[nodiscard]] bool has_deadlock() const;
  /// True if every reachable marking marks each place at most once (always
  /// true when construction succeeded; kept for test readability).
  [[nodiscard]] bool is_safe() const { return true; }
  /// True if `m` is reachable.
  [[nodiscard]] bool reaches(const Marking& m) const;

 private:
  const PetriNet& net_;
  std::vector<ReachNode> nodes_;
};

/// Critical-path (minimum-execution-time) analysis.
///
/// Computes the time for a token to flow from the initially marked places to
/// the sink places: the longest place-delay-weighted path through the net,
/// with back arcs (loops) traversed at most once.  For the chain-structured
/// control parts generated from schedules this equals the number of control
/// steps times the step delay; the general algorithm follows the paper's
/// reachability-tree formulation for nets with parallelism.
struct CriticalPathResult {
  int length = 0;                   ///< total delay along the critical path
  std::vector<PlaceId> places;      ///< places on one critical path, in order
};

[[nodiscard]] CriticalPathResult critical_path(const PetriNet& net);

}  // namespace hlts::petri
