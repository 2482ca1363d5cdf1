#include "testability/testability.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/trace.hpp"

namespace hlts::testability {

namespace {
constexpr double kEps = 1e-9;
constexpr int kMaxRounds = 256;
}  // namespace

bool Measure::better_than(const Measure& o) const {
  if (comb > o.comb + kEps) return true;
  if (comb < o.comb - kEps) return false;
  return seq < o.seq - kEps;
}

namespace {

/// Propagation update rule: should `v` replace the stored value `s`?
///
/// `better_than` alone is eps-tolerant, so inside an eps-plateau (values
/// equal to within kEps, e.g. two loop unrollings whose rounded products
/// differ in the last ulp) the stored value would be whichever candidate
/// happened to arrive first.  Plateau ties are instead broken on the exact
/// values: within a plateau the lexicographic maximum (bitwise larger comb,
/// then bitwise smaller seq) wins.
bool should_replace(const Measure& v, const Measure& s) {
  if (v.better_than(s)) return true;
  if (s.better_than(v)) return false;
  return v.comb > s.comb || (v.comb == s.comb && v.seq < s.seq);
}

}  // namespace

double Measure::scalar(double lambda) const {
  return comb / (1.0 + lambda * seq);
}

double controllability_transfer(dfg::OpKind kind) {
  using dfg::OpKind;
  switch (kind) {
    case OpKind::Add:
    case OpKind::Sub:
      return 0.95;
    case OpKind::Mul:
      return 0.65;  // many input pairs map to the same product
    case OpKind::Div:
      return 0.60;
    case OpKind::Less:
    case OpKind::Greater:
    case OpKind::Equal:
      return 0.80;  // the 1-bit output itself is easy to set either way
    case OpKind::And:
    case OpKind::Or:
    case OpKind::Xor:
    case OpKind::Not:
      return 0.90;
    case OpKind::ShiftLeft:
    case OpKind::ShiftRight:
      return 0.85;
    case OpKind::Move:
      return 1.0;
  }
  return 0.5;
}

double observability_transfer(dfg::OpKind kind) {
  using dfg::OpKind;
  switch (kind) {
    case OpKind::Add:
    case OpKind::Sub:
      return 0.95;
    case OpKind::Mul:
      return 0.55;
    case OpKind::Div:
      return 0.50;
    case OpKind::Less:
    case OpKind::Greater:
    case OpKind::Equal:
      return 0.30;  // wide operands funnel into one bit
    case OpKind::And:
    case OpKind::Or:
      return 0.75;  // a side input can mask the fault
    case OpKind::Xor:
    case OpKind::Not:
      return 0.95;  // xor/not never mask
    case OpKind::ShiftLeft:
    case OpKind::ShiftRight:
      return 0.85;
    case OpKind::Move:
      return 1.0;
  }
  return 0.5;
}

TestabilityAnalysis::TestabilityAnalysis(const etpn::DataPath& dp) : dp_(dp) {
  cc_.assign(dp.num_arcs(), Measure{});
  co_.assign(dp.num_arcs(), Measure{});
  propagate_controllability();
  propagate_observability();
}

namespace {

/// Best measure over a set of arcs; `def` when the set is empty.
template <typename Arcs, typename Table>
Measure best_over(const Arcs& arcs, const Table& table, Measure def) {
  bool any = false;
  Measure best;
  for (auto a : arcs) {
    if (!any || table[a].better_than(best)) {
      best = table[a];
      any = true;
    }
  }
  return any ? best : def;
}

}  // namespace

Measure TestabilityAnalysis::controllability_of(etpn::DpNodeId n) const {
  using etpn::DpArcId;
  using etpn::DpNodeKind;
  const etpn::DpNode& node = dp_.node(n);
  switch (node.kind) {
    case DpNodeKind::InPort:
      return {1.0, 0.0};
    case DpNodeKind::Register: {
      // Load through the best input line; one more clocked stage.
      Measure best = best_over(dp_.in_arcs(n), cc_, Measure{});
      return {best.comb, best.seq + 1.0};
    }
    case DpNodeKind::Module: {
      // Both operand ports must be justified simultaneously.
      const int arity = dp_.num_ports(n);
      double comb = controllability_transfer(node.op_class);
      double seq = 0;
      for (int port = 0; port < arity; ++port) {
        Measure best{};
        bool any = false;
        for (DpArcId a : dp_.in_arcs(n)) {
          if (dp_.arc(a).to_port != port) continue;
          if (!any || cc_[a].better_than(best)) {
            best = cc_[a];
            any = true;
          }
        }
        if (!any) best = Measure{};
        comb *= best.comb;
        seq = std::max(seq, best.seq);
      }
      return {comb, seq};
    }
    case DpNodeKind::OutPort:
      break;  // no output lines; value unused
  }
  return {};
}

Measure TestabilityAnalysis::observability_of(etpn::DpNodeId n,
                                              etpn::DpArcId in) const {
  using etpn::DpArcId;
  using etpn::DpNodeKind;
  const etpn::DpNode& node = dp_.node(n);
  switch (node.kind) {
    case DpNodeKind::OutPort:
      return {1.0, 0.0};
    case DpNodeKind::Register: {
      Measure best = best_over(dp_.out_arcs(n), co_, Measure{});
      return {best.comb, best.seq + 1.0};
    }
    case DpNodeKind::Module: {
      // Observe through the best output line; the other operand must
      // be set to a non-masking value, so its controllability scales
      // the result.
      Measure out_best = best_over(dp_.out_arcs(n), co_, Measure{});
      double side = 1.0;
      const int arity = dp_.num_ports(n);
      if (arity > 1) {
        const int other = 1 - dp_.arc(in).to_port;
        Measure best{};
        bool any = false;
        for (DpArcId a : dp_.in_arcs(n)) {
          if (dp_.arc(a).to_port != other) continue;
          if (!any || cc_[a].better_than(best)) {
            best = cc_[a];
            any = true;
          }
        }
        side = any ? best.comb : 0.0;
      }
      return {observability_transfer(node.op_class) * out_best.comb * side,
              out_best.seq};
    }
    case DpNodeKind::InPort:
      break;  // no input lines; value unused
  }
  return {};
}

void TestabilityAnalysis::propagate_controllability() {
  using etpn::DpArcId;
  using etpn::DpNodeId;
  using etpn::DpNodeKind;

  std::int64_t visits = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (DpNodeId n : dp_.node_ids()) {
      if (!dp_.alive(n)) continue;
      const etpn::DpNode& node = dp_.node(n);
      if (node.kind == DpNodeKind::OutPort) continue;  // no output lines
      ++visits;
      const Measure out = controllability_of(n);
      for (DpArcId a : dp_.out_arcs(n)) {
        // Monotone update: only improve, so the fixpoint is reached from
        // below and loops cannot oscillate.
        if (should_replace(out, cc_[a])) {
          cc_[a] = out;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  util::count("testability.node_visits", visits);
}

void TestabilityAnalysis::propagate_observability() {
  using etpn::DpArcId;
  using etpn::DpNodeId;
  using etpn::DpNodeKind;

  std::int64_t visits = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (DpNodeId n : dp_.node_ids()) {
      if (!dp_.alive(n)) continue;
      const etpn::DpNode& node = dp_.node(n);
      if (node.kind == DpNodeKind::InPort) continue;  // no input lines
      ++visits;
      // Compute the observability each *input line* of `n` inherits.
      for (DpArcId in : dp_.in_arcs(n)) {
        const Measure val = observability_of(n, in);
        if (should_replace(val, co_[in])) {
          co_[in] = val;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  util::count("testability.node_visits", visits);
}

Measure TestabilityAnalysis::node_controllability(etpn::DpNodeId n) const {
  if (dp_.node(n).kind == etpn::DpNodeKind::InPort) return {1.0, 0.0};
  return best_over(dp_.in_arcs(n), cc_, Measure{});
}

Measure TestabilityAnalysis::node_observability(etpn::DpNodeId n) const {
  if (dp_.node(n).kind == etpn::DpNodeKind::OutPort) return {1.0, 0.0};
  return best_over(dp_.out_arcs(n), co_, Measure{});
}

double TestabilityAnalysis::balance_index() const {
  double sum = 0;
  int count = 0;
  for (etpn::DpNodeId n : dp_.node_ids()) {
    if (!dp_.alive(n)) continue;
    const auto kind = dp_.node(n).kind;
    if (kind != etpn::DpNodeKind::Register && kind != etpn::DpNodeKind::Module) {
      continue;
    }
    sum += std::min(node_controllability(n).scalar(),
                    node_observability(n).scalar());
    ++count;
  }
  return count ? sum / count : 0.0;
}

}  // namespace hlts::testability
