#include "atpg/podem.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace hlts::atpg {

using gates::GateId;
using gates::GateKind;

namespace {

constexpr std::uint8_t V0 = 0;
constexpr std::uint8_t V1 = 1;
constexpr std::uint8_t VX = 2;

std::uint8_t not3(std::uint8_t a) { return a == VX ? VX : (a ^ 1); }

std::uint8_t and3(std::uint8_t a, std::uint8_t b) {
  if (a == V0 || b == V0) return V0;
  if (a == V1 && b == V1) return V1;
  return VX;
}

std::uint8_t or3(std::uint8_t a, std::uint8_t b) {
  if (a == V1 || b == V1) return V1;
  if (a == V0 && b == V0) return V0;
  return VX;
}

std::uint8_t xor3(std::uint8_t a, std::uint8_t b) {
  if (a == VX || b == VX) return VX;
  return a ^ b;
}

std::uint8_t mux3(std::uint8_t s, std::uint8_t a, std::uint8_t b) {
  if (s == V0) return a;
  if (s == V1) return b;
  // Select unknown: output known only if both data inputs agree.
  if (a != VX && a == b) return a;
  return VX;
}

// Per-node flag bits (Impl::flags_).
constexpr std::uint8_t kJustifiable = 1;  ///< see compute_justifiable()
constexpr std::uint8_t kInCone = 2;       ///< in the current fault cone
constexpr std::uint8_t kFrontier = 4;     ///< on the D-frontier
constexpr std::uint8_t kTouched = 8;      ///< in touched_, refresh pending

}  // namespace

/// All PODEM state lives here: built once per TimeFramePodem, prepared once
/// per target, rewound through the trail between restarts and targets.
class TimeFramePodem::Impl {
 public:
  Impl(const gates::Netlist& nl, int frames);

  PodemResult generate(const Fault& fault, int backtrack_limit);
  bool check_sequence(const Fault& fault, const TestSequence& sequence);

 private:
  /// Unrolled node: frame * num_gates + gate index (checked to fit).
  using NodeId = std::uint32_t;

  std::size_t total_nodes() const { return nl_.num_gates() * frames_; }
  NodeId node(int frame, GateId g) const {
    return static_cast<NodeId>(static_cast<std::size_t>(frame) *
                                   nl_.num_gates() +
                               g.index());
  }
  int frame_of(NodeId n) const {
    return static_cast<int>(n / nl_.num_gates());
  }
  GateId gate_of(NodeId n) const {
    return GateId{static_cast<std::uint32_t>(n % nl_.num_gates())};
  }

  /// Queues a fault-cone node for the next frontier refresh.
  void touch(NodeId n) {
    if ((flags_[n] & (kInCone | kTouched)) == kInCone) {
      flags_[n] |= kTouched;
      touched_.push_back(n);
    }
  }

  void set_value(NodeId n, std::uint8_t g, std::uint8_t f) {
    if (good_[n] == g && faulty_[n] == f) return;
    trail_.push_back({n, good_[n], faulty_[n]});
    good_[n] = g;
    faulty_[n] = f;
    touch(n);
  }

  void undo_to(std::size_t mark) {
    while (trail_.size() > mark) {
      const Change& c = trail_.back();
      good_[c.node] = c.good;
      faulty_[c.node] = c.faulty;
      touch(c.node);
      trail_.pop_back();
    }
  }

  /// Computes the value of a node from its inputs; applies the fault mask.
  std::pair<std::uint8_t, std::uint8_t> eval(NodeId n) const;

  /// Event-driven forward implication starting at `n`.
  void propagate_from(NodeId n);

  /// Full forward implication in frame order, sources before levelized
  /// combinational gates.
  void imply_all();

  /// Rewinds to the good base, then installs `fault`: its cone, the faulty
  /// values on the cone, the base mark and the initial D-frontier.
  void prepare(const Fault& fault);

  /// One randomized search from the base mark.
  PodemResult run(int backtrack_limit);

  [[nodiscard]] bool is_d(NodeId m) const {
    return good_[m] != VX && faulty_[m] != VX && good_[m] != faulty_[m];
  }
  [[nodiscard]] bool detected() const;
  /// First frame where the fault site's good value is still X; -1 if none.
  [[nodiscard]] int excitable_frame() const;
  /// D-frontier membership: a cone node with a D on some input and X on
  /// the output.
  [[nodiscard]] bool on_frontier(NodeId n) const;
  /// Brings frontier_ up to date with the touched nodes.
  void refresh_frontier();
  /// True if some D-frontier gate reaches a PO through X-valued nodes.
  [[nodiscard]] bool x_path_exists();

  struct Objective {
    NodeId node = 0;
    std::uint8_t value = VX;
    bool valid = false;
  };
  /// Fills objectives_ with every candidate objective, best-first: one
  /// propagation objective per X side input of each D-frontier gate, then
  /// the excitation objectives of the frames whose fault site is open.
  void collect_objectives();
  /// Walks from an objective to an assignable PI; invalid if stuck.
  [[nodiscard]] Objective backtrace(Objective obj);

  /// Static analysis: an unrolled node is justifiable when an assignable
  /// primary input lies in its transitive fan-in.  Power-up X values
  /// (frame-0 DFFs) are not justifiable; backtracing into such a cone can
  /// never reach a decision variable.
  void compute_justifiable();

  [[nodiscard]] bool is_assignable_pi(NodeId n) const {
    const gates::Gate& g = nl_.gate(gate_of(n));
    if (g.kind != GateKind::Input) return false;
    // The reset input is forced (1 in frame 0, 0 after).
    if (reset_index_ >= 0 &&
        gate_of(n) == nl_.inputs()[static_cast<std::size_t>(reset_index_)]) {
      return false;
    }
    return true;
  }

  TestSequence extract_sequence() const;

  /// Static forward cone of the fault across all frames: the only nodes
  /// where good and faulty values can ever differ.  Restricting the
  /// D-frontier / detection / X-path work to it is the key PODEM speedup
  /// (the cone is typically a small fraction of the unrolled model).
  void compute_cone();

  struct Change {
    NodeId node;
    std::uint8_t good, faulty;
  };
  struct Decision {
    NodeId pi;
    std::uint8_t value;
    bool flipped;
    std::size_t mark;
  };

  const gates::Netlist& nl_;
  int frames_;
  int reset_index_ = -1;  ///< position of the "reset" input, -1 if absent
  Rng rng_{1};
  Fault fault_{};  ///< invalid gate while the good base is implied

  // Per node (frames x gates), all bytes.
  std::vector<std::uint8_t> good_, faulty_;
  std::vector<std::uint8_t> flags_;  ///< kJustifiable | kInCone | ...
  std::vector<std::uint8_t> visit_;  ///< == visit_epoch_: seen by x_path_exists
  std::uint8_t visit_epoch_ = 0;

  // Per target.
  std::vector<NodeId> cone_;          // sorted node ids in the fault cone
  std::vector<NodeId> cone_outputs_;  // PO nodes within the cone
  std::vector<NodeId> frontier_;      // sorted D-frontier nodes
  std::vector<NodeId> touched_;       // kTouched nodes, query pending
  std::vector<Change> trail_;
  std::size_t base_mark_ = 0;

  // Scratch reused by every decision.
  std::vector<NodeId> queue_, stack_, eligible_;
  std::vector<Objective> objectives_;
  std::vector<Decision> decisions_;
};

TimeFramePodem::Impl::Impl(const gates::Netlist& nl, int frames)
    : nl_(nl), frames_(frames) {
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.gate(nl.inputs()[i]).name == "reset") {
      reset_index_ = static_cast<int>(i);
    }
  }
  const std::size_t n = total_nodes();
  HLTS_REQUIRE(n <= UINT32_MAX, "PODEM: unrolled model too large");
  good_.assign(n, VX);
  faulty_.assign(n, VX);
  flags_.assign(n, 0);
  visit_.assign(n, 0);
  compute_justifiable();

  // The good base: reset high in frame 0, low afterwards, implied with no
  // fault.  It is permanent (below every target's trail).
  if (reset_index_ >= 0) {
    const GateId rst = nl_.inputs()[static_cast<std::size_t>(reset_index_)];
    for (int frame = 0; frame < frames_; ++frame) {
      const NodeId r = node(frame, rst);
      good_[r] = faulty_[r] = frame == 0 ? V1 : V0;
    }
  }
  imply_all();
  trail_.clear();
}

void TimeFramePodem::Impl::compute_cone() {
  cone_.clear();
  cone_outputs_.clear();
  for (int frame = 0; frame < frames_; ++frame) {
    const NodeId n = node(frame, fault_.gate);
    if (!(flags_[n] & kInCone)) {
      flags_[n] |= kInCone;
      cone_.push_back(n);
    }
  }
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    const NodeId n = cone_[i];
    const int frame = frame_of(n);
    const gates::Gate& g = nl_.gate(gate_of(n));
    for (GateId fo : g.fanouts) {
      const bool crosses = nl_.gate(fo).kind == GateKind::Dff;
      const int tf = frame + (crosses ? 1 : 0);
      if (tf >= frames_) continue;
      const NodeId t = node(tf, fo);
      if (!(flags_[t] & kInCone)) {
        flags_[t] |= kInCone;
        cone_.push_back(t);
      }
    }
  }
  std::sort(cone_.begin(), cone_.end());
  for (NodeId n : cone_) {
    if (nl_.gate(gate_of(n)).kind == GateKind::Output) {
      cone_outputs_.push_back(n);
    }
  }
}

void TimeFramePodem::Impl::compute_justifiable() {
  const auto justifiable = [&](NodeId n) {
    return (flags_[n] & kJustifiable) != 0;
  };
  for (int frame = 0; frame < frames_; ++frame) {
    for (GateId g : nl_.gate_ids()) {
      const gates::Gate& gate = nl_.gate(g);
      const NodeId n = node(frame, g);
      bool j = false;
      switch (gate.kind) {
        case GateKind::Input:
          j = is_assignable_pi(n);
          break;
        case GateKind::Const0:
        case GateKind::Const1:
          break;
        case GateKind::Dff:
          j = frame > 0 && justifiable(node(frame - 1, gate.inputs[0]));
          break;
        default:
          break;  // combinational: below, in levelized order
      }
      if (j) flags_[n] |= kJustifiable;
    }
    for (GateId g : nl_.levelized()) {
      const gates::Gate& gate = nl_.gate(g);
      const NodeId n = node(frame, g);
      for (GateId in : gate.inputs) {
        if (justifiable(node(frame, in))) {
          flags_[n] |= kJustifiable;
          break;
        }
      }
    }
  }
}

std::pair<std::uint8_t, std::uint8_t> TimeFramePodem::Impl::eval(
    NodeId n) const {
  const int frame = frame_of(n);
  const GateId gid = gate_of(n);
  const gates::Gate& g = nl_.gate(gid);
  std::uint8_t gv = VX;
  std::uint8_t fv = VX;
  auto in = [&](std::size_t i) { return node(frame, g.inputs[i]); };

  switch (g.kind) {
    case GateKind::Input:
      // Assigned externally; keep the current value.
      gv = good_[n];
      fv = faulty_[n];
      break;
    case GateKind::Const0:
      gv = fv = V0;
      break;
    case GateKind::Const1:
      gv = fv = V1;
      break;
    case GateKind::Dff:
      if (frame == 0) {
        gv = fv = VX;  // power-up state is unknown
      } else {
        const NodeId src = node(frame - 1, g.inputs[0]);
        gv = good_[src];
        fv = faulty_[src];
      }
      break;
    case GateKind::Buf:
    case GateKind::Output:
      gv = good_[in(0)];
      fv = faulty_[in(0)];
      break;
    case GateKind::Not:
      gv = not3(good_[in(0)]);
      fv = not3(faulty_[in(0)]);
      break;
    case GateKind::And:
    case GateKind::Nand: {
      gv = V1;
      fv = V1;
      for (std::size_t i = 0; i < g.inputs.size(); ++i) {
        gv = and3(gv, good_[in(i)]);
        fv = and3(fv, faulty_[in(i)]);
      }
      if (g.kind == GateKind::Nand) {
        gv = not3(gv);
        fv = not3(fv);
      }
      break;
    }
    case GateKind::Or:
    case GateKind::Nor: {
      gv = V0;
      fv = V0;
      for (std::size_t i = 0; i < g.inputs.size(); ++i) {
        gv = or3(gv, good_[in(i)]);
        fv = or3(fv, faulty_[in(i)]);
      }
      if (g.kind == GateKind::Nor) {
        gv = not3(gv);
        fv = not3(fv);
      }
      break;
    }
    case GateKind::Xor:
      gv = xor3(good_[in(0)], good_[in(1)]);
      fv = xor3(faulty_[in(0)], faulty_[in(1)]);
      break;
    case GateKind::Xnor:
      gv = not3(xor3(good_[in(0)], good_[in(1)]));
      fv = not3(xor3(faulty_[in(0)], faulty_[in(1)]));
      break;
    case GateKind::Mux:
      gv = mux3(good_[in(0)], good_[in(1)], good_[in(2)]);
      fv = mux3(faulty_[in(0)], faulty_[in(1)], faulty_[in(2)]);
      break;
  }
  if (gid == fault_.gate) {
    fv = fault_.stuck_at_one ? V1 : V0;
  }
  return {gv, fv};
}

void TimeFramePodem::Impl::propagate_from(NodeId start) {
  // FIFO over a reused vector: head walks forward, pushes append.
  queue_.clear();
  queue_.push_back(start);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const NodeId n = queue_[head];
    const int frame = frame_of(n);
    const gates::Gate& g = nl_.gate(gate_of(n));
    for (GateId fo : g.fanouts) {
      const bool crosses = nl_.gate(fo).kind == GateKind::Dff;
      const int target_frame = frame + (crosses ? 1 : 0);
      if (target_frame >= frames_) continue;
      const NodeId t = node(target_frame, fo);
      auto [gv, fv] = eval(t);
      if (gv != good_[t] || fv != faulty_[t]) {
        set_value(t, gv, fv);
        queue_.push_back(t);
      }
    }
  }
}

void TimeFramePodem::Impl::imply_all() {
  for (int frame = 0; frame < frames_; ++frame) {
    // Sources first (DFFs read the previous frame), then levelized comb.
    for (GateId g : nl_.gate_ids()) {
      const GateKind kind = nl_.gate(g).kind;
      if (kind == GateKind::Const0 || kind == GateKind::Const1 ||
          kind == GateKind::Dff || kind == GateKind::Input) {
        const NodeId n = node(frame, g);
        auto [gv, fv] = eval(n);
        set_value(n, gv, fv);
      }
    }
    for (GateId g : nl_.levelized()) {
      const NodeId n = node(frame, g);
      auto [gv, fv] = eval(n);
      set_value(n, gv, fv);
    }
  }
}

void TimeFramePodem::Impl::prepare(const Fault& fault) {
  // Leave the old cone first (touched and frontier nodes lie in it), so
  // rewinding to the good base queues nothing.
  for (NodeId n : cone_) flags_[n] &= ~(kInCone | kFrontier | kTouched);
  touched_.clear();
  frontier_.clear();
  undo_to(0);

  fault_ = fault;
  compute_cone();
  // Outside the cone the faulty machine equals the good base.  Inside it,
  // ascending node id is an implication order: frames ascend, a DFF reads
  // the previous frame, and Netlist::add_gate only accepts existing gates
  // as inputs, so every combinational input has the smaller id.
  for (NodeId n : cone_) {
    auto [gv, fv] = eval(n);
    set_value(n, gv, fv);
  }
  base_mark_ = trail_.size();
  refresh_frontier();
}

bool TimeFramePodem::Impl::detected() const {
  for (NodeId n : cone_outputs_) {
    if (is_d(n)) return true;
  }
  return false;
}

int TimeFramePodem::Impl::excitable_frame() const {
  for (int frame = 0; frame < frames_; ++frame) {
    if (good_[node(frame, fault_.gate)] == VX) return frame;
  }
  return -1;
}

bool TimeFramePodem::Impl::on_frontier(NodeId n) const {
  const gates::Gate& gate = nl_.gate(gate_of(n));
  if (gate.inputs.empty()) return false;
  // Unresolved output: at least one machine still X (covers the composite
  // 1/X and 0/X cases, where fixing a side input can still turn the output
  // into a definite D).
  if (good_[n] != VX && faulty_[n] != VX) return false;
  // DFFs read the previous frame.
  const int frame = frame_of(n);
  const int in_frame = gate.kind == GateKind::Dff ? frame - 1 : frame;
  if (in_frame < 0) return false;
  for (GateId in : gate.inputs) {
    if (is_d(node(in_frame, in))) return true;
  }
  return false;
}

void TimeFramePodem::Impl::refresh_frontier() {
  // Membership depends on a node's own value and its inputs' values, and
  // only cone nodes carry a D, so re-deriving it for each touched node and
  // its fanouts (closed in the cone) covers every possible change.  A node
  // re-derived twice gets the same answer, so each flips at most once.
  bool added = false;
  bool removed = false;
  const auto update = [&](NodeId n) {
    const bool member = on_frontier(n);
    if (member == ((flags_[n] & kFrontier) != 0)) return;
    if (member) {
      flags_[n] |= kFrontier;
      frontier_.push_back(n);
      added = true;
    } else {
      flags_[n] &= ~kFrontier;
      removed = true;
    }
  };
  for (NodeId m : touched_) {
    flags_[m] &= ~kTouched;
    update(m);
    const int frame = frame_of(m);
    for (GateId fo : nl_.gate(gate_of(m)).fanouts) {
      const bool crosses = nl_.gate(fo).kind == GateKind::Dff;
      const int tf = frame + (crosses ? 1 : 0);
      if (tf < frames_) update(node(tf, fo));
    }
  }
  touched_.clear();
  if (removed) {
    std::erase_if(frontier_,
                  [&](NodeId n) { return !(flags_[n] & kFrontier); });
  }
  // Ascending node id: the order of a scan over the sorted cone.
  if (added) std::sort(frontier_.begin(), frontier_.end());
}

bool TimeFramePodem::Impl::x_path_exists() {
  // DFS through X-valued nodes (on either machine) toward any PO.  visit_
  // is epoch-marked; it is cleared only when the byte epoch wraps.
  if (++visit_epoch_ == 0) {
    std::fill(visit_.begin(), visit_.end(), 0);
    visit_epoch_ = 1;
  }
  stack_.assign(frontier_.begin(), frontier_.end());
  for (NodeId n : stack_) visit_[n] = visit_epoch_;
  while (!stack_.empty()) {
    const NodeId n = stack_.back();
    stack_.pop_back();
    const gates::Gate& g = nl_.gate(gate_of(n));
    if (g.kind == GateKind::Output) return true;
    const int frame = frame_of(n);
    for (GateId fo : g.fanouts) {
      const bool crosses = nl_.gate(fo).kind == GateKind::Dff;
      const int tf = frame + (crosses ? 1 : 0);
      if (tf >= frames_) continue;
      const NodeId t = node(tf, fo);
      if (visit_[t] == visit_epoch_) continue;
      if (good_[t] != VX && faulty_[t] != VX && good_[t] == faulty_[t]) {
        continue;  // fully determined and fault-free: no path through here
      }
      visit_[t] = visit_epoch_;
      stack_.push_back(t);
    }
  }
  return false;
}

void TimeFramePodem::Impl::collect_objectives() {
  objectives_.clear();
  // Propagation objectives: drive each D-frontier gate's X side inputs to
  // non-controlling values.
  for (NodeId n : frontier_) {
    const gates::Gate& g = nl_.gate(gate_of(n));
    const int frame = frame_of(n);
    const int in_frame = g.kind == GateKind::Dff ? frame - 1 : frame;
    auto add = [&](NodeId m, std::uint8_t v) {
      if (good_[m] != VX || !(flags_[m] & kJustifiable)) return;
      objectives_.push_back({m, v, true});
    };
    switch (g.kind) {
      case GateKind::And:
      case GateKind::Nand:
        for (GateId in : g.inputs) add(node(in_frame, in), V1);
        break;
      case GateKind::Or:
      case GateKind::Nor:
      case GateKind::Xor:
      case GateKind::Xnor:
        for (GateId in : g.inputs) add(node(in_frame, in), V0);
        break;
      case GateKind::Mux: {
        const NodeId sel = node(in_frame, g.inputs[0]);
        const NodeId a = node(in_frame, g.inputs[1]);
        const NodeId b = node(in_frame, g.inputs[2]);
        if (good_[sel] == VX) {
          add(sel, is_d(b) ? V1 : V0);
        } else {
          // Select is known; make the chosen data leg non-X.
          const NodeId chosen = good_[sel] == V1 ? b : a;
          add(chosen, V1);
          add(chosen, V0);
        }
        break;
      }
      default:
        for (GateId in : g.inputs) add(node(in_frame, in), V1);
        break;
    }
  }
  // Excitation objectives: frames where the fault site's good value is
  // still open.  Appended even when a D-frontier exists -- a D stuck at an
  // unpropagatable spot must not block exciting the fault in a frame from
  // which it *can* reach an output.
  for (int frame = 0; frame < frames_; ++frame) {
    const NodeId n = node(frame, fault_.gate);
    if (good_[n] != VX || !(flags_[n] & kJustifiable)) continue;
    objectives_.push_back({n, fault_.stuck_at_one ? V0 : V1, true});
  }
}

TimeFramePodem::Impl::Objective TimeFramePodem::Impl::backtrace(
    Objective obj) {
  int guard = static_cast<int>(total_nodes()) + 8;
  while (obj.valid && guard-- > 0) {
    const GateId gid = gate_of(obj.node);
    const gates::Gate& g = nl_.gate(gid);
    const int frame = frame_of(obj.node);
    if (g.kind == GateKind::Input) {
      if (!is_assignable_pi(obj.node)) {
        obj.valid = false;
      }
      return obj;
    }
    const int in_frame = g.kind == GateKind::Dff ? frame - 1 : frame;
    if (in_frame < 0 || g.inputs.empty()) {
      obj.valid = false;
      return obj;
    }
    // Inversion parity.
    switch (g.kind) {
      case GateKind::Not:
      case GateKind::Nand:
      case GateKind::Nor:
        obj.value = not3(obj.value);
        break;
      default:
        break;
    }
    // Follow an X-valued input whose cone contains an assignable primary
    // input; X values coming only from the unknown power-up state can
    // never be justified.  The choice among eligible inputs is randomized:
    // together with restarts this diversifies the search tree, the
    // standard remedy for PODEM's myopic backtrace on sequential models.
    eligible_.clear();
    for (GateId in : g.inputs) {
      const NodeId m = node(in_frame, in);
      if (good_[m] == VX && (flags_[m] & kJustifiable)) {
        eligible_.push_back(m);
      }
    }
    if (eligible_.empty()) {
      obj.valid = false;
      return obj;
    }
    obj.node = eligible_.size() == 1
                   ? eligible_[0]
                   : eligible_[rng_.next_below(eligible_.size())];
  }
  if (guard <= 0) obj.valid = false;
  return obj;
}

TestSequence TimeFramePodem::Impl::extract_sequence() const {
  TestSequence seq;
  for (int frame = 0; frame < frames_; ++frame) {
    TestVector v(nl_.inputs().size(), false);
    for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
      if (reset_index_ >= 0 && static_cast<int>(i) == reset_index_) {
        v[i] = (frame == 0);
        continue;
      }
      const NodeId n = node(frame, nl_.inputs()[i]);
      v[i] = good_[n] == V1;
    }
    seq.push_back(std::move(v));
  }
  return seq;
}

PodemResult TimeFramePodem::Impl::run(int backtrack_limit) {
  PodemResult result;
  decisions_.clear();

  const auto assign = [&](NodeId pi, std::uint8_t v) {
    set_value(pi, v, gate_of(pi) == fault_.gate
                         ? (fault_.stuck_at_one ? V1 : V0)
                         : v);
    propagate_from(pi);
  };

  while (true) {
    if (detected()) {
      result.status = PodemStatus::Detected;
      result.sequence = extract_sequence();
      return result;
    }

    // The search is alive while either an existing D can still reach an
    // output (live frontier) or the fault can still be excited in a frame
    // whose site value is open.  A dead D in one frame must not end the
    // search: excitation in another frame may propagate.
    refresh_frontier();
    const bool frontier_alive = !frontier_.empty() && x_path_exists();
    const bool excitable = excitable_frame() >= 0;
    bool dead = !frontier_alive && !excitable;

    Objective target;
    if (!dead) {
      // Try every candidate objective until one backtraces to an
      // assignable primary input.
      target.valid = false;
      collect_objectives();
      for (const Objective& cand : objectives_) {
        Objective traced = backtrace(cand);
        if (traced.valid) {
          target = traced;
          break;
        }
      }
      if (!target.valid) dead = true;
    }

    if (dead) {
      // Dead before any decision: the initial implication alone shows the
      // fault cannot be excited or propagated within the frame bound --
      // a sound (bounded) untestability claim.  Exhaustion after decisions
      // is NOT a proof here (the randomized backtrace explores one tree of
      // many), so it reports Aborted and the caller may restart.
      if (decisions_.empty() && result.backtracks == 0) {
        result.status = PodemStatus::Untestable;
        return result;
      }
      // Backtrack.
      while (!decisions_.empty() && decisions_.back().flipped) {
        undo_to(decisions_.back().mark);
        decisions_.pop_back();
      }
      if (decisions_.empty()) {
        result.status = PodemStatus::Aborted;
        return result;
      }
      if (++result.backtracks > backtrack_limit) {
        result.status = PodemStatus::Aborted;
        return result;
      }
      Decision& d = decisions_.back();
      undo_to(d.mark);
      d.value = d.value == V1 ? V0 : V1;
      d.flipped = true;
      assign(d.pi, d.value);
      continue;
    }

    decisions_.push_back({target.node, target.value, false, trail_.size()});
    assign(target.node, target.value);
  }
}

PodemResult TimeFramePodem::Impl::generate(const Fault& fault,
                                           int backtrack_limit) {
  prepare(fault);
  // Restarts with different backtrace randomization; the per-call budget is
  // split across attempts.  Each one starts from the target's base mark.
  constexpr int kRestarts = 3;
  const int per_attempt = std::max(1, backtrack_limit / kRestarts);
  PodemResult last;
  int attempts = 0;
  int total_backtracks = 0;
  while (attempts < kRestarts) {
    const std::uint64_t seed =
        (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(++attempts)) ^
        (static_cast<std::uint64_t>(fault.gate.value()) * 2 +
         (fault.stuck_at_one ? 1 : 0));
    rng_ = Rng(seed);
    undo_to(base_mark_);
    last = run(per_attempt);
    total_backtracks += last.backtracks;
    if (last.status == PodemStatus::Detected ||
        last.status == PodemStatus::Untestable) {
      break;
    }
  }
  last.backtracks = total_backtracks;
  util::count("atpg.podem_attempts", attempts);
  util::count("atpg.podem_backtracks", total_backtracks);
  return last;
}

bool TimeFramePodem::Impl::check_sequence(const Fault& fault,
                                          const TestSequence& sequence) {
  prepare(fault);
  // Every primary input comes from the sequence (reset included), X past
  // its end; imply_all then rewrites every other node.
  for (int frame = 0; frame < frames_; ++frame) {
    const bool in_sequence = frame < static_cast<int>(sequence.size());
    for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
      const std::uint8_t v =
          !in_sequence ? VX : (sequence[frame][i] ? V1 : V0);
      set_value(node(frame, nl_.inputs()[i]), v, v);
    }
  }
  imply_all();
  const bool hit = detected();
  undo_to(base_mark_);
  return hit;
}

TimeFramePodem::TimeFramePodem(const gates::Netlist& nl, int frames)
    : nl_(nl), frames_(frames) {
  HLTS_REQUIRE(frames >= 1, "PODEM needs at least one frame");
}

TimeFramePodem::~TimeFramePodem() = default;

TimeFramePodem::Impl& TimeFramePodem::impl() {
  if (!impl_) impl_ = std::make_unique<Impl>(nl_, frames_);
  return *impl_;
}

PodemResult TimeFramePodem::generate(const Fault& fault, int backtrack_limit) {
  return impl().generate(fault, backtrack_limit);
}

bool TimeFramePodem::check_sequence(const Fault& fault,
                                    const TestSequence& sequence) {
  return impl().check_sequence(fault, sequence);
}

}  // namespace hlts::atpg
