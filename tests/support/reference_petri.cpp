#include "support/reference_petri.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace hlts::test_support::petri {

std::size_t Marking::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : bits_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

std::size_t Marking::hash() const {
  // FNV-1a over the words; good enough for the visited-set map.
  std::size_t h = 1469598103934665603ULL;
  for (std::uint64_t w : bits_) {
    h ^= w;
    h *= 1099511628211ULL;
  }
  return h;
}

PlaceId PetriNet::add_place(const std::string& name, int delay,
                            bool initially_marked) {
  HLTS_REQUIRE(delay >= 0, "place delay must be non-negative");
  Place p;
  p.name = name;
  p.delay = delay;
  p.initially_marked = initially_marked;
  return places_.push_back(std::move(p));
}

TransId PetriNet::add_transition(const std::string& name,
                                 const std::vector<PlaceId>& inputs,
                                 const std::vector<PlaceId>& outputs,
                                 int guard_group, bool guard_polarity) {
  HLTS_REQUIRE(!inputs.empty() && !outputs.empty(),
               "transition " + name + " must have inputs and outputs");
  for (PlaceId p : inputs) {
    HLTS_REQUIRE(places_.contains(p), "transition " + name + ": bad input place");
  }
  for (PlaceId p : outputs) {
    HLTS_REQUIRE(places_.contains(p), "transition " + name + ": bad output place");
  }
  Transition t;
  t.name = name;
  t.inputs = inputs;
  t.outputs = outputs;
  t.guard_group = guard_group;
  t.guard_polarity = guard_polarity;
  TransId id = transitions_.push_back(std::move(t));
  for (PlaceId p : inputs) places_[p].out_transitions.push_back(id);
  for (PlaceId p : outputs) places_[p].in_transitions.push_back(id);
  return id;
}

Marking PetriNet::initial_marking() const {
  Marking m(places_.size());
  for (PlaceId p : place_ids()) {
    if (places_[p].initially_marked) m.set(p);
  }
  return m;
}

bool PetriNet::enabled(TransId t, const Marking& m) const {
  for (PlaceId p : transitions_[t].inputs) {
    if (!m.has(p)) return false;
  }
  return true;
}

Marking PetriNet::fire(TransId t, const Marking& m) const {
  Marking next = m;
  for (PlaceId p : transitions_[t].inputs) next.clear(p);
  for (PlaceId p : transitions_[t].outputs) {
    HLTS_REQUIRE(!next.has(p),
                 "net is not 1-safe: double token in place " + places_[p].name);
    next.set(p);
  }
  return next;
}

std::vector<PlaceId> PetriNet::sink_places() const {
  std::vector<PlaceId> out;
  for (PlaceId p : place_ids()) {
    if (places_[p].out_transitions.empty()) out.push_back(p);
  }
  return out;
}

std::vector<PlaceId> PetriNet::source_places() const {
  std::vector<PlaceId> out;
  for (PlaceId p : place_ids()) {
    if (places_[p].initially_marked) out.push_back(p);
  }
  return out;
}

void PetriNet::validate() const {
  for (TransId t : trans_ids()) {
    const Transition& tr = transitions_[t];
    HLTS_REQUIRE(!tr.inputs.empty(), "transition " + tr.name + " has no inputs");
    HLTS_REQUIRE(!tr.outputs.empty(), "transition " + tr.name + " has no outputs");
  }
}

std::string PetriNet::to_dot() const {
  std::ostringstream os;
  os << "digraph \"" << name_ << "\" {\n";
  for (PlaceId p : place_ids()) {
    os << "  p" << p.value() << " [label=\"" << places_[p].name
       << (places_[p].initially_marked ? " *" : "") << "\" shape=circle];\n";
  }
  for (TransId t : trans_ids()) {
    os << "  t" << t.value() << " [label=\"" << transitions_[t].name
       << "\" shape=box height=0.1];\n";
    for (PlaceId p : transitions_[t].inputs) {
      os << "  p" << p.value() << " -> t" << t.value() << ";\n";
    }
    for (PlaceId p : transitions_[t].outputs) {
      os << "  t" << t.value() << " -> p" << p.value() << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

ReachabilityTree::ReachabilityTree(const PetriNet& net, std::size_t max_nodes)
    : net_(net) {
  struct MarkingHash {
    std::size_t operator()(const Marking& m) const { return m.hash(); }
  };
  std::unordered_map<Marking, int, MarkingHash> seen;

  ReachNode root;
  root.marking = net.initial_marking();
  nodes_.push_back(root);
  seen.emplace(nodes_[0].marking, 0);

  std::deque<int> frontier{0};
  while (!frontier.empty()) {
    int idx = frontier.front();
    frontier.pop_front();
    // Copy the marking: nodes_ may reallocate while we expand.
    const Marking m = nodes_[idx].marking;
    for (TransId t : net.trans_ids()) {
      if (!net.enabled(t, m)) continue;
      Marking next = net.fire(t, m);
      auto [it, inserted] = seen.emplace(next, static_cast<int>(nodes_.size()));
      if (inserted) {
        HLTS_REQUIRE(nodes_.size() < max_nodes,
                     "reachability tree exceeded node bound");
        ReachNode n;
        n.marking = std::move(next);
        n.parent = idx;
        n.via = t;
        nodes_.push_back(std::move(n));
        frontier.push_back(it->second);
      }
      nodes_[idx].children.push_back(it->second);
    }
  }
}

bool ReachabilityTree::has_deadlock() const {
  for (const ReachNode& n : nodes_) {
    if (n.marking.count() == 0) continue;  // empty marking: net terminated
    bool any_enabled = false;
    for (TransId t : net_.trans_ids()) {
      if (net_.enabled(t, n.marking)) {
        any_enabled = true;
        break;
      }
    }
    // A marking consisting solely of sink places is normal termination.
    if (!any_enabled) {
      bool all_sinks = true;
      for (PlaceId p : net_.place_ids()) {
        if (n.marking.has(p) && !net_.place(p).out_transitions.empty()) {
          all_sinks = false;
          break;
        }
      }
      if (!all_sinks) return true;
    }
  }
  return false;
}

bool ReachabilityTree::reaches(const Marking& m) const {
  return std::any_of(nodes_.begin(), nodes_.end(),
                     [&](const ReachNode& n) { return n.marking == m; });
}

namespace {

/// Place-to-place adjacency with back edges (w.r.t. a DFS from the sources)
/// removed, so loops contribute one traversal to the critical path.
struct PlaceDag {
  std::vector<std::vector<std::uint32_t>> succs;
  std::vector<std::uint32_t> topo;  // topological order of reachable places
};

PlaceDag build_place_dag(const PetriNet& net) {
  const std::size_t n = net.num_places();
  std::vector<std::vector<std::uint32_t>> all_succs(n);
  for (TransId t : net.trans_ids()) {
    const Transition& tr = net.transition(t);
    for (PlaceId in : tr.inputs) {
      for (PlaceId out : tr.outputs) {
        all_succs[in.index()].push_back(out.value());
      }
    }
  }

  PlaceDag dag;
  dag.succs.assign(n, {});
  // Iterative DFS from all sources; classify edges, keep tree/forward/cross.
  enum class Color : unsigned char { White, Grey, Black };
  std::vector<Color> color(n, Color::White);
  struct Frame {
    std::uint32_t place;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack;
  for (PlaceId src : net.source_places()) {
    if (color[src.index()] != Color::White) continue;
    stack.push_back({src.value()});
    color[src.index()] = Color::Grey;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_child < all_succs[f.place].size()) {
        std::uint32_t child = all_succs[f.place][f.next_child++];
        if (color[child] == Color::Grey) {
          continue;  // back edge: drop to break the cycle
        }
        dag.succs[f.place].push_back(child);
        if (color[child] == Color::White) {
          color[child] = Color::Grey;
          stack.push_back({child});
        }
      } else {
        color[f.place] = Color::Black;
        dag.topo.push_back(f.place);
        stack.pop_back();
      }
    }
  }
  // topo currently holds reverse-postorder reversed; fix direction.
  std::reverse(dag.topo.begin(), dag.topo.end());
  return dag;
}

}  // namespace

CriticalPathResult critical_path(const PetriNet& net) {
  CriticalPathResult result;
  if (net.num_places() == 0) return result;

  PlaceDag dag = build_place_dag(net);
  const std::size_t n = net.num_places();
  constexpr int kUnreached = -1;
  std::vector<int> dist(n, kUnreached);
  std::vector<int> pred(n, -1);
  for (PlaceId src : net.source_places()) {
    dist[src.index()] = net.place(src).delay;
  }
  for (std::uint32_t p : dag.topo) {
    if (dist[p] == kUnreached) continue;
    for (std::uint32_t q : dag.succs[p]) {
      int cand = dist[p] + net.place(PlaceId{q}).delay;
      if (cand > dist[q]) {
        dist[q] = cand;
        pred[q] = static_cast<int>(p);
      }
    }
  }

  // Prefer ending at a sink place; fall back to the globally longest path
  // (purely cyclic nets have no sinks).
  int best = -1;
  std::vector<PlaceId> sinks = net.sink_places();
  const auto consider = [&](std::uint32_t p) {
    if (dist[p] != kUnreached && (best < 0 || dist[p] > dist[best])) {
      best = static_cast<int>(p);
    }
  };
  if (!sinks.empty()) {
    for (PlaceId p : sinks) consider(p.value());
  }
  if (best < 0) {
    for (std::uint32_t p = 0; p < n; ++p) consider(p);
  }
  if (best < 0) return result;

  result.length = dist[best];
  for (int p = best; p >= 0; p = pred[p]) {
    result.places.push_back(PlaceId{static_cast<std::uint32_t>(p)});
  }
  std::reverse(result.places.begin(), result.places.end());
  return result;
}

}  // namespace hlts::test_support::petri

namespace hlts::test_support {

ControlNet build_control(const dfg::Dfg& g, int length,
                         bool loop_on_condition) {
  ControlNet c;
  c.step_place.assign(length + 1, petri::PlaceId::invalid());
  c.step_place[0] = c.net.add_place("S0", /*delay=*/0, /*marked=*/true);
  for (int step = 1; step <= length; ++step) {
    c.step_place[step] =
        c.net.add_place(cat("S", std::to_string(step)), /*delay=*/1);
  }
  for (int step = 0; step < length; ++step) {
    c.net.add_transition(
        cat("t", std::to_string(step), "_", std::to_string(step + 1)),
        {c.step_place[step]}, {c.step_place[step + 1]});
  }

  // Condition output: a port-direct comparison result.
  dfg::VarId cond = dfg::VarId::invalid();
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    if (var.is_primary_output && !g.needs_register(v) && var.def.valid() &&
        dfg::op_is_comparison(g.op(var.def).kind)) {
      cond = v;
      break;
    }
  }

  if (loop_on_condition && cond.valid() && length >= 1) {
    petri::PlaceId done = c.net.add_place("done", /*delay=*/0);
    c.net.add_transition("t_loop", {c.step_place[length]}, {c.step_place[1]},
                         /*guard_group=*/1, /*polarity=*/true);
    c.net.add_transition("t_exit", {c.step_place[length]}, {done},
                         /*guard_group=*/1, /*polarity=*/false);
    c.looped = true;
  }

  c.net.validate();
  return c;
}

namespace {

::testing::AssertionResult net_agrees(const ControlNet& c, int length,
                                      std::size_t markings) {
  const char* const net = c.looped ? "looped control net" : "control chain";
  const petri::ReachabilityTree tree(c.net);
  if (tree.has_deadlock()) {
    return ::testing::AssertionFailure() << net << " deadlocks";
  }
  if (tree.size() != markings) {
    return ::testing::AssertionFailure() << net << " has " << tree.size()
                                         << " markings, expected " << markings;
  }
  const int cp = petri::critical_path(c.net).length;
  if (cp != length) {
    return ::testing::AssertionFailure() << net << " critical path " << cp
                                         << " != schedule length " << length;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

::testing::AssertionResult control_matches_schedule(const dfg::Dfg& g,
                                                    const sched::Schedule& s) {
  const int length = s.length();
  const auto markings = static_cast<std::size_t>(length) + 1;
  ::testing::AssertionResult chain =
      net_agrees(build_control(g, length), length, markings);
  if (!chain) return chain;
  const ControlNet looped =
      build_control(g, length, /*loop_on_condition=*/true);
  if (!looped.looped) return chain;
  return net_agrees(looped, length, markings + 1);
}

}  // namespace hlts::test_support
