#include "atpg/podem.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "gates/gate_table.hpp"
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
constexpr std::uint8_t kWasD = 16;        ///< carried a D at its last refresh
/// kInCone in each byte of a word of eight flag bytes.
constexpr std::uint64_t kInConeBytes = 0x0101010101010101ULL * kInCone;

}  // namespace

/// All PODEM state lives here: built once per TimeFramePodem, prepared once
/// per target, rewound through the trail between restarts and targets.
class TimeFramePodem::Impl {
 public:
  Impl(const gates::Netlist& nl, int frames);

  PodemResult generate(const Fault& fault, int backtrack_limit);
  bool check_sequence(const Fault& fault, const TestSequence& sequence);

 private:
  /// Unrolled node: frame << shift_ | gate index (checked to fit).  The
  /// stride 1 << shift_ is the gate count rounded up to a power of two, so
  /// a node's frame and gate are a shift and a mask away; node ids ascend
  /// in (frame, gate) order, like frame * num_gates + gate.
  using NodeId = std::uint32_t;

  NodeId node(int frame, std::uint32_t g) const {
    return (static_cast<NodeId>(frame) << shift_) | g;
  }
  NodeId node(int frame, GateId g) const { return node(frame, g.value()); }
  std::uint32_t gate_of(NodeId n) const { return n & gate_mask_; }
  [[nodiscard]] bool in_frame0(NodeId n) const { return n <= gate_mask_; }
  /// node(f, 0) of the frame f that a node of kind `kind` reads its inputs
  /// in: the node's own frame, or the one before for a DFF (wrapped for a
  /// frame-0 DFF, which reads nothing).
  NodeId input_base(NodeId n, GateKind kind) const {
    const NodeId base = n & ~gate_mask_;
    return kind == GateKind::Dff ? base - (gate_mask_ + 1) : base;
  }
  /// The node a fanout entry of `n`'s gate reads into: the same frame, or
  /// the next one for a DFF.  At or past end_node_ when it leaves the model.
  NodeId fanout_node(NodeId n, std::uint32_t fanout) const {
    return (((n >> shift_) + gates::GateTable::crossing(fanout)) << shift_) |
           gates::GateTable::target(fanout);
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
    // The reset input is forced (1 in frame 0, 0 after).
    return table_.kind(gate_of(n)) == GateKind::Input &&
           gate_of(n) != reset_gate_;
  }

  TestSequence extract_sequence() const;

  /// Static forward cone of the fault across all frames: the only nodes
  /// where good and faulty values can ever differ.  Restricting the
  /// D-frontier / detection / X-path work to it is the key PODEM speedup
  /// (the cone is typically a small fraction of the unrolled model).
  /// Every edge of the unrolled model ascends in node id, so one ascending
  /// pass that closes each cone node's fanouts lists the cone sorted.
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
  const gates::GateTable table_;
  int frames_;
  int reset_index_ = -1;  ///< position of the "reset" input, -1 if absent
  std::uint32_t reset_gate_ = UINT32_MAX;  ///< its gate; none if absent
  int shift_ = 0;
  std::uint32_t gate_mask_ = 0;
  NodeId end_node_ = 0;  ///< node(frames_, 0): one past the last frame
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
    : nl_(nl), table_(nl), frames_(frames) {
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.gate(nl.inputs()[i]).name == "reset") {
      reset_index_ = static_cast<int>(i);
      reset_gate_ = nl.inputs()[i].value();
    }
  }
  shift_ = std::bit_width(std::max<std::size_t>(nl.num_gates(), 2) - 1);
  gate_mask_ = (std::uint32_t{1} << shift_) - 1;
  const std::size_t n = static_cast<std::size_t>(frames_) << shift_;
  // A DFF fanout of the last frame lands at most gate_mask_ past n.
  HLTS_REQUIRE(n + gate_mask_ <= UINT32_MAX, "PODEM: unrolled model too large");
  end_node_ = static_cast<NodeId>(n);
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
  const NodeId first = node(0, fault_.gate);
  for (int frame = 0; frame < frames_; ++frame) {
    flags_[node(frame, fault_.gate)] |= kInCone;
  }
  for (NodeId n = first; n < end_node_; ++n) {
    // Skip eight nodes at a time while none of them is in the cone.
    if (end_node_ - n >= 8) {
      std::uint64_t word;
      std::memcpy(&word, &flags_[n], sizeof word);
      if ((word & kInConeBytes) == 0) {
        n += 7;
        continue;
      }
    }
    if (!(flags_[n] & kInCone)) continue;
    cone_.push_back(n);
    const std::uint32_t g = gate_of(n);
    if (table_.kind(g) == GateKind::Output) cone_outputs_.push_back(n);
    for (const std::uint32_t fo : table_.fanouts(g)) {
      const NodeId t = fanout_node(n, fo);
      if (t < end_node_) flags_[t] |= kInCone;
    }
  }
}

void TimeFramePodem::Impl::compute_justifiable() {
  const auto justifiable = [&](NodeId n) {
    return (flags_[n] & kJustifiable) != 0;
  };
  for (int frame = 0; frame < frames_; ++frame) {
    for (std::uint32_t g = 0; g < table_.num_gates(); ++g) {
      const NodeId n = node(frame, g);
      bool j = false;
      switch (table_.kind(g)) {
        case GateKind::Input:
          j = is_assignable_pi(n);
          break;
        case GateKind::Const0:
        case GateKind::Const1:
          break;
        case GateKind::Dff:
          j = frame > 0 && justifiable(node(frame - 1, table_.inputs(g)[0]));
          break;
        default:
          break;  // combinational: below, in levelized order
      }
      if (j) flags_[n] |= kJustifiable;
    }
    for (GateId g : nl_.levelized()) {
      const NodeId n = node(frame, g);
      for (const std::uint32_t in : table_.inputs(g.value())) {
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
  const std::uint32_t gid = gate_of(n);
  const GateKind kind = table_.kind(gid);
  const std::span<const std::uint32_t> ins = table_.inputs(gid);
  const NodeId base = input_base(n, kind);
  std::uint8_t gv = VX;
  std::uint8_t fv = VX;
  auto in = [&](std::size_t i) { return base | ins[i]; };

  switch (kind) {
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
      if (in_frame0(n)) {
        gv = fv = VX;  // power-up state is unknown
      } else {
        gv = good_[in(0)];
        fv = faulty_[in(0)];
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
      for (std::size_t i = 0; i < ins.size(); ++i) {
        gv = and3(gv, good_[in(i)]);
        fv = and3(fv, faulty_[in(i)]);
      }
      if (kind == GateKind::Nand) {
        gv = not3(gv);
        fv = not3(fv);
      }
      break;
    }
    case GateKind::Or:
    case GateKind::Nor: {
      gv = V0;
      fv = V0;
      for (std::size_t i = 0; i < ins.size(); ++i) {
        gv = or3(gv, good_[in(i)]);
        fv = or3(fv, faulty_[in(i)]);
      }
      if (kind == GateKind::Nor) {
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
  if (gid == fault_.gate.value()) {
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
    for (const std::uint32_t fo : table_.fanouts(gate_of(n))) {
      const NodeId t = fanout_node(n, fo);
      if (t >= end_node_) continue;
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
    for (std::uint32_t g = 0; g < table_.num_gates(); ++g) {
      const GateKind kind = table_.kind(g);
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
  // rewinding to the good base queues nothing.  The good base carries no
  // D, so a cleared kWasD is true of every node there.
  for (NodeId n : cone_) {
    flags_[n] &= ~(kInCone | kFrontier | kTouched | kWasD);
  }
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
  const std::uint32_t g = gate_of(n);
  const GateKind kind = table_.kind(g);
  const std::span<const std::uint32_t> ins = table_.inputs(g);
  if (ins.empty()) return false;
  // Unresolved output: at least one machine still X (covers the composite
  // 1/X and 0/X cases, where fixing a side input can still turn the output
  // into a definite D).
  if (good_[n] != VX && faulty_[n] != VX) return false;
  // DFFs read the previous frame.
  if (kind == GateKind::Dff && in_frame0(n)) return false;
  const NodeId base = input_base(n, kind);
  for (const std::uint32_t in : ins) {
    if (is_d(base | in)) return true;
  }
  return false;
}

void TimeFramePodem::Impl::refresh_frontier() {
  // Membership depends on a node's own value and on whether its inputs
  // carry a D, and only cone nodes carry a D.  So re-deriving it for each
  // touched node covers the first, and for the fanouts (closed in the
  // cone) of each touched node whose D status differs from the one
  // recorded at its last refresh (kWasD) covers the second: a node whose
  // value changed and changed back, or moved between two non-D values,
  // leaves its fanouts' membership as it was.  A node re-derived twice
  // gets the same answer, so each flips at most once.
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
    if (is_d(m) == ((flags_[m] & kWasD) != 0)) continue;
    flags_[m] ^= kWasD;
    for (const std::uint32_t fo : table_.fanouts(gate_of(m))) {
      const NodeId t = fanout_node(m, fo);
      if (t < end_node_) update(t);
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
    const std::uint32_t g = gate_of(n);
    if (table_.kind(g) == GateKind::Output) return true;
    for (const std::uint32_t fo : table_.fanouts(g)) {
      const NodeId t = fanout_node(n, fo);
      if (t >= end_node_) continue;
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
    const std::uint32_t g = gate_of(n);
    const GateKind kind = table_.kind(g);
    const std::span<const std::uint32_t> ins = table_.inputs(g);
    // A frontier DFF lies past frame 0.
    const NodeId base = input_base(n, kind);
    auto add = [&](NodeId m, std::uint8_t v) {
      if (good_[m] != VX || !(flags_[m] & kJustifiable)) return;
      objectives_.push_back({m, v, true});
    };
    switch (kind) {
      case GateKind::And:
      case GateKind::Nand:
        for (const std::uint32_t in : ins) add(base | in, V1);
        break;
      case GateKind::Or:
      case GateKind::Nor:
      case GateKind::Xor:
      case GateKind::Xnor:
        for (const std::uint32_t in : ins) add(base | in, V0);
        break;
      case GateKind::Mux: {
        const NodeId sel = base | ins[0];
        const NodeId a = base | ins[1];
        const NodeId b = base | ins[2];
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
        for (const std::uint32_t in : ins) add(base | in, V1);
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
  int guard = static_cast<int>(table_.num_gates() * frames_) + 8;
  while (obj.valid && guard-- > 0) {
    const std::uint32_t g = gate_of(obj.node);
    const GateKind kind = table_.kind(g);
    if (kind == GateKind::Input) {
      if (!is_assignable_pi(obj.node)) {
        obj.valid = false;
      }
      return obj;
    }
    const std::span<const std::uint32_t> ins = table_.inputs(g);
    if ((kind == GateKind::Dff && in_frame0(obj.node)) || ins.empty()) {
      obj.valid = false;
      return obj;
    }
    // Inversion parity.
    switch (kind) {
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
    const NodeId base = input_base(obj.node, kind);
    for (const std::uint32_t in : ins) {
      const NodeId m = base | in;
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
    set_value(pi, v, gate_of(pi) == fault_.gate.value()
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
