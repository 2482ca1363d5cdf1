#include "support/reference_podem.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hlts::test_support {

using atpg::Fault;
using atpg::PodemResult;
using atpg::PodemStatus;
using atpg::TestSequence;
using atpg::TestVector;
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

}  // namespace

/// All PODEM state lives here; rebuilt per ReferencePodem instance and
/// reused (reset) across target faults.
class ReferencePodem::Impl {
 public:
  Impl(const gates::Netlist& nl, int frames, int reset_index,
       std::uint64_t seed)
      : nl_(nl), frames_(frames), reset_index_(reset_index), rng_(seed) {
    const std::size_t n = total_nodes();
    good_.assign(n, VX);
    faulty_.assign(n, VX);
    compute_justifiable();
  }

  PodemResult run(const Fault& fault, int backtrack_limit);

  bool run_sequence_check(const Fault& fault, const TestSequence& sequence) {
    fault_ = fault;
    compute_cone();
    trail_.clear();
    std::fill(good_.begin(), good_.end(), VX);
    std::fill(faulty_.begin(), faulty_.end(), VX);
    for (int frame = 0; frame < frames_; ++frame) {
      if (frame >= static_cast<int>(sequence.size())) break;
      for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
        const std::size_t n = node(frame, nl_.inputs()[i]);
        const std::uint8_t v = sequence[frame][i] ? V1 : V0;
        good_[n] = v;
        faulty_[n] =
            nl_.inputs()[i] == fault_.gate ? (fault_.stuck_at_one ? V1 : V0) : v;
      }
    }
    imply_all();
    return detected();
  }

 private:
  std::size_t total_nodes() const { return nl_.num_gates() * frames_; }
  std::size_t node(int frame, GateId g) const {
    return static_cast<std::size_t>(frame) * nl_.num_gates() + g.index();
  }
  int frame_of(std::size_t n) const {
    return static_cast<int>(n / nl_.num_gates());
  }
  GateId gate_of(std::size_t n) const {
    return GateId{static_cast<std::uint32_t>(n % nl_.num_gates())};
  }

  void set_value(std::size_t n, std::uint8_t g, std::uint8_t f) {
    if (good_[n] == g && faulty_[n] == f) return;
    trail_.push_back({n, good_[n], faulty_[n]});
    good_[n] = g;
    faulty_[n] = f;
  }

  /// Computes the value of a node from its inputs; applies the fault mask.
  std::pair<std::uint8_t, std::uint8_t> eval(std::size_t n) const;

  /// Event-driven forward implication starting at `n`.
  void propagate_from(std::size_t n);

  /// Full forward implication (used once per fault for the initial state).
  void imply_all();

  void undo_to(std::size_t mark) {
    while (trail_.size() > mark) {
      const Change& c = trail_.back();
      good_[c.node] = c.good;
      faulty_[c.node] = c.faulty;
      trail_.pop_back();
    }
  }

  [[nodiscard]] bool detected() const;
  [[nodiscard]] bool excited() const;
  /// First frame where the fault site's good value is still X; -1 if none.
  [[nodiscard]] int excitable_frame() const;
  /// D-frontier: nodes with a D on some input and X on the output.
  [[nodiscard]] std::vector<std::size_t> d_frontier() const;
  /// True if some D-frontier gate reaches a PO through X-valued nodes.
  [[nodiscard]] bool x_path_exists(const std::vector<std::size_t>& frontier) const;

  struct Objective {
    std::size_t node = 0;
    std::uint8_t value = VX;
    bool valid = false;
  };
  /// All candidate objectives, best-first: excitation objectives per frame
  /// while the fault is unexcited, otherwise one propagation objective per
  /// D-frontier gate.
  [[nodiscard]] std::vector<Objective> objectives() const;
  /// Walks from an objective to an assignable PI; invalid if stuck.
  [[nodiscard]] Objective backtrace(Objective obj);

  /// Static analysis: an unrolled node is justifiable when an assignable
  /// primary input lies in its transitive fan-in.  Power-up X values
  /// (frame-0 DFFs) are not justifiable; backtracing into such a cone can
  /// never reach a decision variable.
  void compute_justifiable();

  [[nodiscard]] bool is_assignable_pi(std::size_t n) const {
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
  /// D-frontier / detection / X-path scans to it is the key PODEM speedup
  /// (the cone is typically a small fraction of the unrolled model).
  void compute_cone();

  struct Change {
    std::size_t node;
    std::uint8_t good, faulty;
  };

  const gates::Netlist& nl_;
  int frames_;
  int reset_index_;
  Rng rng_;
  Fault fault_{};
  std::vector<std::uint8_t> good_, faulty_;
  std::vector<bool> justifiable_;
  std::vector<std::size_t> cone_;       // sorted node ids in the fault cone
  std::vector<std::size_t> cone_outputs_;  // PO nodes within the cone
  std::vector<Change> trail_;
};

void ReferencePodem::Impl::compute_cone() {
  cone_.clear();
  cone_outputs_.clear();
  std::vector<bool> in_cone(total_nodes(), false);
  std::vector<std::size_t> queue;
  for (int frame = 0; frame < frames_; ++frame) {
    const std::size_t n = node(frame, fault_.gate);
    if (!in_cone[n]) {
      in_cone[n] = true;
      queue.push_back(n);
    }
  }
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const std::size_t n = queue[i];
    const int frame = frame_of(n);
    const gates::Gate& g = nl_.gate(gate_of(n));
    for (GateId fo : g.fanouts) {
      const bool crosses = nl_.gate(fo).kind == GateKind::Dff;
      const int tf = frame + (crosses ? 1 : 0);
      if (tf >= frames_) continue;
      const std::size_t t = node(tf, fo);
      if (!in_cone[t]) {
        in_cone[t] = true;
        queue.push_back(t);
      }
    }
  }
  cone_ = std::move(queue);
  std::sort(cone_.begin(), cone_.end());
  for (std::size_t n : cone_) {
    if (nl_.gate(gate_of(n)).kind == GateKind::Output) {
      cone_outputs_.push_back(n);
    }
  }
}

void ReferencePodem::Impl::compute_justifiable() {
  justifiable_.assign(total_nodes(), false);
  for (int frame = 0; frame < frames_; ++frame) {
    for (GateId g : nl_.gate_ids()) {
      const gates::Gate& gate = nl_.gate(g);
      const std::size_t n = node(frame, g);
      switch (gate.kind) {
        case GateKind::Input:
          justifiable_[n] = is_assignable_pi(n);
          break;
        case GateKind::Const0:
        case GateKind::Const1:
          break;
        case GateKind::Dff:
          justifiable_[n] =
              frame > 0 && justifiable_[node(frame - 1, gate.inputs[0])];
          break;
        default:
          break;  // combinational: below, in levelized order
      }
    }
    for (GateId g : nl_.levelized()) {
      const gates::Gate& gate = nl_.gate(g);
      const std::size_t n = node(frame, g);
      for (GateId in : gate.inputs) {
        if (justifiable_[node(frame, in)]) {
          justifiable_[n] = true;
          break;
        }
      }
    }
  }
}

std::pair<std::uint8_t, std::uint8_t> ReferencePodem::Impl::eval(
    std::size_t n) const {
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
        const std::size_t src = node(frame - 1, g.inputs[0]);
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

void ReferencePodem::Impl::propagate_from(std::size_t start) {
  std::deque<std::size_t> queue{start};
  while (!queue.empty()) {
    const std::size_t n = queue.front();
    queue.pop_front();
    const int frame = frame_of(n);
    const gates::Gate& g = nl_.gate(gate_of(n));
    for (GateId fo : g.fanouts) {
      const bool crosses = nl_.gate(fo).kind == GateKind::Dff;
      const int target_frame = frame + (crosses ? 1 : 0);
      if (target_frame >= frames_) continue;
      const std::size_t t = node(target_frame, fo);
      auto [gv, fv] = eval(t);
      if (gv != good_[t] || fv != faulty_[t]) {
        set_value(t, gv, fv);
        queue.push_back(t);
      }
    }
  }
}

void ReferencePodem::Impl::imply_all() {
  for (int frame = 0; frame < frames_; ++frame) {
    // Sources first (DFFs read the previous frame), then levelized comb.
    for (GateId g : nl_.gate_ids()) {
      const GateKind kind = nl_.gate(g).kind;
      if (kind == GateKind::Const0 || kind == GateKind::Const1 ||
          kind == GateKind::Dff || kind == GateKind::Input) {
        const std::size_t n = node(frame, g);
        auto [gv, fv] = eval(n);
        set_value(n, gv, fv);
      }
    }
    for (GateId g : nl_.levelized()) {
      const std::size_t n = node(frame, g);
      auto [gv, fv] = eval(n);
      set_value(n, gv, fv);
    }
  }
}

bool ReferencePodem::Impl::detected() const {
  for (std::size_t n : cone_outputs_) {
    if (good_[n] != VX && faulty_[n] != VX && good_[n] != faulty_[n]) {
      return true;
    }
  }
  return false;
}

bool ReferencePodem::Impl::excited() const {
  for (int frame = 0; frame < frames_; ++frame) {
    const std::size_t n = node(frame, fault_.gate);
    if (good_[n] != VX && good_[n] != faulty_[n]) return true;
  }
  return false;
}

int ReferencePodem::Impl::excitable_frame() const {
  for (int frame = 0; frame < frames_; ++frame) {
    if (good_[node(frame, fault_.gate)] == VX) return frame;
  }
  return -1;
}

std::vector<std::size_t> ReferencePodem::Impl::d_frontier() const {
  // Only nodes in the fault's forward cone can carry a D.
  std::vector<std::size_t> frontier;
  for (std::size_t n : cone_) {
    const gates::Gate& gate = nl_.gate(gate_of(n));
    if (gate.inputs.empty()) continue;
    // Unresolved output: at least one machine still X (covers the
    // composite 1/X and 0/X cases, where fixing a side input can still
    // turn the output into a definite D).
    if (good_[n] != VX && faulty_[n] != VX) continue;
    // An input carries a D when both values are binary and differ.  DFFs
    // read the previous frame.
    const int frame = frame_of(n);
    const int in_frame = gate.kind == GateKind::Dff ? frame - 1 : frame;
    if (in_frame < 0) continue;
    for (GateId in : gate.inputs) {
      const std::size_t m = node(in_frame, in);
      if (good_[m] != VX && faulty_[m] != VX && good_[m] != faulty_[m]) {
        frontier.push_back(n);
        break;
      }
    }
  }
  return frontier;
}

bool ReferencePodem::Impl::x_path_exists(
    const std::vector<std::size_t>& frontier) const {
  // DFS through X-valued nodes (on either machine) toward any PO.
  std::vector<bool> visited(total_nodes(), false);
  std::vector<std::size_t> stack(frontier);
  for (std::size_t n : stack) visited[n] = true;
  while (!stack.empty()) {
    const std::size_t n = stack.back();
    stack.pop_back();
    const gates::Gate& g = nl_.gate(gate_of(n));
    if (g.kind == GateKind::Output) return true;
    const int frame = frame_of(n);
    for (GateId fo : g.fanouts) {
      const bool crosses = nl_.gate(fo).kind == GateKind::Dff;
      const int tf = frame + (crosses ? 1 : 0);
      if (tf >= frames_) continue;
      const std::size_t t = node(tf, fo);
      if (visited[t]) continue;
      if (good_[t] != VX && faulty_[t] != VX && good_[t] == faulty_[t]) {
        continue;  // fully determined and fault-free: no path through here
      }
      visited[t] = true;
      stack.push_back(t);
    }
  }
  return false;
}

std::vector<ReferencePodem::Impl::Objective>
ReferencePodem::Impl::objectives() const {
  std::vector<Objective> out;
  // Propagation objectives: drive each D-frontier gate's X side inputs to
  // non-controlling values.
  for (std::size_t n : d_frontier()) {
    const gates::Gate& g = nl_.gate(gate_of(n));
    const int frame = frame_of(n);
    const int in_frame = g.kind == GateKind::Dff ? frame - 1 : frame;
    auto add = [&](std::size_t m, std::uint8_t v) {
      if (good_[m] != VX || !justifiable_[m]) return;
      Objective obj;
      obj.node = m;
      obj.value = v;
      obj.valid = true;
      out.push_back(obj);
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
        const std::size_t sel = node(in_frame, g.inputs[0]);
        const std::size_t a = node(in_frame, g.inputs[1]);
        const std::size_t b = node(in_frame, g.inputs[2]);
        auto is_d = [&](std::size_t m) {
          return good_[m] != VX && faulty_[m] != VX && good_[m] != faulty_[m];
        };
        if (good_[sel] == VX) {
          add(sel, is_d(b) ? V1 : V0);
        } else {
          // Select is known; make the chosen data leg non-X.
          const std::size_t chosen = good_[sel] == V1 ? b : a;
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
    const std::size_t n = node(frame, fault_.gate);
    if (good_[n] != VX || !justifiable_[n]) continue;
    Objective obj;
    obj.node = n;
    obj.value = fault_.stuck_at_one ? V0 : V1;
    obj.valid = true;
    out.push_back(obj);
  }
  return out;
}

ReferencePodem::Impl::Objective ReferencePodem::Impl::backtrace(
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
    std::vector<std::size_t> eligible;
    for (GateId in : g.inputs) {
      const std::size_t m = node(in_frame, in);
      if (good_[m] == VX && justifiable_[m]) eligible.push_back(m);
    }
    if (eligible.empty()) {
      obj.valid = false;
      return obj;
    }
    obj.node = eligible.size() == 1
                   ? eligible[0]
                   : eligible[rng_.next_below(eligible.size())];
  }
  if (guard <= 0) obj.valid = false;
  return obj;
}

TestSequence ReferencePodem::Impl::extract_sequence() const {
  TestSequence seq;
  for (int frame = 0; frame < frames_; ++frame) {
    TestVector v(nl_.inputs().size(), false);
    for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
      if (reset_index_ >= 0 && static_cast<int>(i) == reset_index_) {
        v[i] = (frame == 0);
        continue;
      }
      const std::size_t n = node(frame, nl_.inputs()[i]);
      v[i] = good_[n] == V1;
    }
    seq.push_back(std::move(v));
  }
  return seq;
}

PodemResult ReferencePodem::Impl::run(const Fault& fault, int backtrack_limit) {
  PodemResult result;
  fault_ = fault;
  compute_cone();
  trail_.clear();
  std::fill(good_.begin(), good_.end(), VX);
  std::fill(faulty_.begin(), faulty_.end(), VX);

  // Forced values: reset high in frame 0, low afterwards.
  if (reset_index_ >= 0) {
    const GateId rst = nl_.inputs()[static_cast<std::size_t>(reset_index_)];
    for (int frame = 0; frame < frames_; ++frame) {
      const std::size_t n = node(frame, rst);
      const std::uint8_t v = frame == 0 ? V1 : V0;
      good_[n] = v;
      faulty_[n] = v;
    }
  }
  imply_all();
  trail_.clear();  // the base state is permanent

  struct Decision {
    std::size_t pi;
    std::uint8_t value;
    bool flipped;
    std::size_t mark;
  };
  std::vector<Decision> stack;

  const auto assign = [&](std::size_t pi, std::uint8_t v) {
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
    const auto frontier = d_frontier();
    const bool frontier_alive = !frontier.empty() && x_path_exists(frontier);
    const bool excitable = excitable_frame() >= 0;
    bool dead = !frontier_alive && !excitable;

    Objective target;
    if (!dead) {
      // Try every candidate objective until one backtraces to an
      // assignable primary input.
      target.valid = false;
      for (const Objective& cand : objectives()) {
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
      if (stack.empty() && result.backtracks == 0) {
        result.status = PodemStatus::Untestable;
        return result;
      }
      // Backtrack.
      while (!stack.empty() && stack.back().flipped) {
        undo_to(stack.back().mark);
        stack.pop_back();
      }
      if (stack.empty()) {
        result.status = PodemStatus::Aborted;
        return result;
      }
      if (++result.backtracks > backtrack_limit) {
        result.status = PodemStatus::Aborted;
        return result;
      }
      Decision& d = stack.back();
      undo_to(d.mark);
      d.value = d.value == V1 ? V0 : V1;
      d.flipped = true;
      assign(d.pi, d.value);
      continue;
    }

    Decision d;
    d.pi = target.node;
    d.value = target.value;
    d.flipped = false;
    d.mark = trail_.size();
    stack.push_back(d);
    assign(d.pi, d.value);
  }
}

ReferencePodem::ReferencePodem(const gates::Netlist& nl, int frames)
    : nl_(nl), frames_(frames) {
  HLTS_REQUIRE(frames >= 1, "PODEM needs at least one frame");
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.gate(nl.inputs()[i]).name == "reset") {
      reset_index_ = static_cast<int>(i);
    }
  }
}

PodemResult ReferencePodem::generate(const Fault& fault, int backtrack_limit) {
  // Restarts with different backtrace randomization; the per-call budget is
  // split across attempts.
  constexpr int kRestarts = 3;
  const int per_attempt = std::max(1, backtrack_limit / kRestarts);
  PodemResult last;
  int total_backtracks = 0;
  for (int attempt = 0; attempt < kRestarts; ++attempt) {
    const std::uint64_t seed =
        (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(attempt + 1)) ^
        (static_cast<std::uint64_t>(fault.gate.value()) * 2 +
         (fault.stuck_at_one ? 1 : 0));
    Impl impl(nl_, frames_, reset_index_, seed);
    last = impl.run(fault, per_attempt);
    total_backtracks += last.backtracks;
    if (last.status == PodemStatus::Detected ||
        last.status == PodemStatus::Untestable) {
      break;
    }
  }
  last.backtracks = total_backtracks;
  return last;
}

bool ReferencePodem::check_sequence(const Fault& fault,
                                    const TestSequence& sequence) {
  Impl impl(nl_, frames_, reset_index_, /*seed=*/1);
  return impl.run_sequence_check(fault, sequence);
}

}  // namespace hlts::test_support
