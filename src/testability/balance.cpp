#include "testability/balance.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace hlts::testability {

void MergeCandidate::apply(const dfg::Dfg& g, etpn::Binding& b) const {
  if (is_modules()) {
    b.merge_modules(g, module_a, module_b);
  } else {
    b.merge_regs(reg_a, reg_b);
  }
}

std::pair<etpn::DpNodeId, etpn::DpNodeId> MergeCandidate::nodes(
    const etpn::Etpn& e) const {
  return is_modules()
             ? std::pair{e.module_node[module_a], e.module_node[module_b]}
             : std::pair{e.reg_node[reg_a], e.reg_node[reg_b]};
}

std::string MergeCandidate::description(const dfg::Dfg& g,
                                        const etpn::Binding& b) const {
  if (is_modules()) {
    return "merge modules [" + b.module_label(g, module_a) + " | " +
           b.module_label(g, module_b) + "]";
  }
  return "merge registers [" + b.reg_label(g, reg_a) + " | " +
         b.reg_label(g, reg_b) + "]";
}

OpReachability::OpReachability(const dfg::Dfg& g)
    : words_((g.num_ops() + 63) / 64), bits_(g.num_ops() * words_, 0) {
  std::vector<dfg::OpId> order = g.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::uint64_t* row = &bits_[it->index() * words_];
    for (dfg::OpId s : g.succs(*it)) {
      row[s.index() / 64] |= std::uint64_t{1} << (s.index() % 64);
      const std::uint64_t* reach = &bits_[s.index() * words_];
      for (std::size_t w = 0; w < words_; ++w) row[w] |= reach[w];
    }
  }
}

RegMergeOracle::RegMergeOracle(const dfg::Dfg& g, const etpn::Binding& b,
                               const OpReachability& reach)
    : g_(&g), b_(&b), reach_(&reach) {
  // Case (2) in one sweep: every op that reads variables of two distinct
  // registers forbids exactly that pair.
  for (dfg::OpId op : g.op_ids()) {
    const auto& ins = g.op(op).inputs;
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const etpn::RegId ri = b.reg_of(ins[i]);
      for (std::size_t j = i + 1; j < ins.size(); ++j) {
        const etpn::RegId rj = b.reg_of(ins[j]);
        if (ri == rj) continue;
        const std::uint64_t lo = std::min(ri.value(), rj.value());
        const std::uint64_t hi = std::max(ri.value(), rj.value());
        op_conflicts_.push_back((lo << 32) | hi);
      }
    }
  }
  std::sort(op_conflicts_.begin(), op_conflicts_.end());
  op_conflicts_.erase(std::unique(op_conflicts_.begin(), op_conflicts_.end()),
                      op_conflicts_.end());
}

bool RegMergeOracle::impossible(etpn::RegId ra, etpn::RegId rb) const {
  const dfg::Dfg& g = *g_;
  const etpn::Binding& b = *b_;

  // Case (2): an operation uses variables of both registers as inputs.
  const std::uint64_t lo = std::min(ra.value(), rb.value());
  const std::uint64_t hi = std::max(ra.value(), rb.value());
  if (std::binary_search(op_conflicts_.begin(), op_conflicts_.end(),
                         (lo << 32) | hi)) {
    return true;
  }

  // Case (1): for some variable pair, data dependences force an ordering
  // arc in each direction, so the lifetimes can never be made disjoint.
  auto dir_blocked = [&](dfg::VarId before, dfg::VarId after) {
    // "before expires before after is created" is infeasible when the
    // definition of `after` strictly precedes some lifetime op of `before`
    // (its definition or a use).
    const dfg::Variable& va = g.var(after);
    if (!va.def.valid()) return true;  // primary input: born at step 0
    const dfg::Variable& vb = g.var(before);
    if (vb.def.valid() && reach_->reaches(va.def, vb.def)) return true;
    return std::any_of(vb.uses.begin(), vb.uses.end(), [&](dfg::OpId u) {
      return reach_->reaches(va.def, u);
    });
  };
  for (dfg::VarId v1 : b.reg_vars(ra)) {
    for (dfg::VarId v2 : b.reg_vars(rb)) {
      if (dir_blocked(v1, v2) && dir_blocked(v2, v1)) return true;
    }
  }
  return false;
}

bool register_merge_impossible(const dfg::Dfg& g, const etpn::Binding& b,
                               etpn::RegId ra, etpn::RegId rb) {
  const OpReachability reach(g);
  return RegMergeOracle(g, b, reach).impossible(ra, rb);
}

CandidateStream::CandidateStream(const dfg::Dfg& g, const etpn::Binding& b,
                                 const OpReachability& reach)
    : oracle_(g, b, reach) {}

namespace {

/// An unsigned integer above 0 that orders like `score`: the bits of a
/// double, sign-folded (-0.0 counts as 0.0, as a double compare has it).
std::uint64_t order_key(double score) {
  const auto bits = std::bit_cast<std::uint64_t>(score + 0.0);
  return bits >> 63 != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

}  // namespace

void CandidateStream::reserve(std::size_t n) {
  slots_.reserve(n);
  scores_.reserve(n);
  keys_.reserve(std::bit_ceil(std::max<std::size_t>(n, 1)));
}

void CandidateStream::add(const MergeCandidate& c) {
  HLTS_REQUIRE(!ordered_, "CandidateStream::add after next");
  const auto [a, b] = c.group_ids();
  slots_.push_back({a, b, c.is_modules(), c.creates_self_loop});
  scores_.push_back(c.score);
  keys_.push_back(order_key(c.score));
}

std::uint32_t CandidateStream::winner(std::uint32_t left,
                                      std::uint32_t right) const {
  // Every slot under a left child was enumerated before those under the
  // right one, so a tie goes left.
  return keys_[right] > keys_[left] ? right : left;
}

std::optional<MergeCandidate> CandidateStream::next() {
  if (!ordered_) {
    leaves_ = std::bit_ceil(std::max<std::size_t>(slots_.size(), 1));
    keys_.resize(leaves_, 0);
    tree_.resize(2 * leaves_);
    for (std::size_t i = 0; i < leaves_; ++i) {
      tree_[leaves_ + i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t v = leaves_ - 1; v != 0; --v) {
      tree_[v] = winner(tree_[2 * v], tree_[2 * v + 1]);
    }
    ordered_ = true;
  }
  for (;;) {
    const std::uint32_t best = tree_[1];
    if (keys_[best] == 0) return std::nullopt;
    keys_[best] = 0;
    for (std::size_t v = (leaves_ + best) / 2; v != 0; v /= 2) {
      tree_[v] = winner(tree_[2 * v], tree_[2 * v + 1]);
    }
    const Slot& slot = slots_[best];
    if (!slot.modules &&
        oracle_.impossible(etpn::RegId{slot.a}, etpn::RegId{slot.b})) {
      continue;
    }
    MergeCandidate c;
    if (slot.modules) {
      c.kind = MergeCandidate::Kind::Modules;
      c.module_a = etpn::ModuleId{slot.a};
      c.module_b = etpn::ModuleId{slot.b};
    } else {
      c.kind = MergeCandidate::Kind::Registers;
      c.reg_a = etpn::RegId{slot.a};
      c.reg_b = etpn::RegId{slot.b};
    }
    c.score = scores_[best];
    c.creates_self_loop = slot.creates_self_loop;
    return c;
  }
}

std::vector<MergeCandidate> CandidateStream::take(std::size_t k) {
  std::vector<MergeCandidate> out;
  while (out.size() < k) {
    std::optional<MergeCandidate> c = next();
    if (!c) break;
    out.push_back(*c);
  }
  return out;
}

CandidateStream balance_candidates(const dfg::Dfg& g, const etpn::Binding& b,
                                   const etpn::Etpn& e,
                                   const TestabilityAnalysis& analysis,
                                   const OpReachability& reach,
                                   const BalanceOptions& options) {
  CandidateStream stream(g, b, reach);
  const etpn::DataPath& dp = e.data_path;
  const std::vector<etpn::ModuleId> modules = b.alive_modules();
  const std::vector<etpn::RegId> regs = b.alive_regs();

  // Per candidate, by position in `modules` then `regs`: the C/O scalars
  // and each one's excess over the other, once per node instead of once
  // per pair.
  const std::size_t m = modules.size();
  std::vector<double> c_of(m + regs.size());
  std::vector<double> o_of(c_of.size());
  std::vector<double> c_excess(c_of.size());
  std::vector<double> o_excess(c_of.size());
  auto measure = [&](std::size_t i, etpn::DpNodeId n) {
    c_of[i] = analysis.node_controllability(n).scalar(options.lambda);
    o_of[i] = analysis.node_observability(n).scalar(options.lambda);
    c_excess[i] = std::max(0.0, c_of[i] - o_of[i]);
    o_excess[i] = std::max(0.0, o_of[i] - c_of[i]);
  };
  for (std::size_t i = 0; i < m; ++i) measure(i, e.module_node[modules[i]]);
  for (std::size_t i = 0; i < regs.size(); ++i) {
    measure(m + i, e.reg_node[regs[i]]);
  }
  auto score_pair = [&](std::size_t i, std::size_t j, bool self_loop) {
    const double merged_c = std::max(c_of[i], c_of[j]);
    const double merged_o = std::max(o_of[i], o_of[j]);
    // Complementarity: one node contributes controllability it has in
    // excess of its observability, the other the reverse.
    const double compl_bonus =
        c_excess[i] * o_excess[j] + c_excess[j] * o_excess[i];
    double score = std::min(merged_c, merged_o) +
                   options.complementarity_weight * compl_bonus;
    if (self_loop) score -= options.self_loop_penalty;
    return score;
  };

  // The register nodes of the data path by position, and one row of bits
  // over those positions per module (the registers it reads, the ones it
  // writes) and per register (the registers some module reads it with and
  // writes, in either direction; its own bit: one module reads and writes
  // it).
  std::vector<std::uint32_t> reg_pos(dp.num_nodes(), 0);
  std::size_t reg_nodes = 0;
  for (etpn::DpNodeId n : dp.node_ids()) {
    if (dp.node(n).kind == etpn::DpNodeKind::Register) {
      reg_pos[n.index()] = static_cast<std::uint32_t>(reg_nodes++);
    }
  }
  const std::size_t words = (reg_nodes + 63) / 64;
  std::vector<std::uint64_t> reads(m * words, 0);
  std::vector<std::uint64_t> writes(m * words, 0);
  std::vector<std::uint64_t> rw(reg_nodes * words, 0);
  auto set = [&](std::vector<std::uint64_t>& bits, std::size_t row,
                 std::uint32_t pos) {
    bits[row * words + pos / 64] |= std::uint64_t{1} << (pos % 64);
  };
  auto test = [&](const std::vector<std::uint64_t>& bits, std::size_t row,
                  std::uint32_t pos) {
    return ((bits[row * words + pos / 64] >> (pos % 64)) & 1) != 0;
  };
  std::vector<std::uint32_t> read_pos;
  std::vector<std::uint32_t> write_pos;
  for (std::size_t i = 0; i < m; ++i) {
    const etpn::DpNodeId n = e.module_node[modules[i]];
    read_pos.clear();
    write_pos.clear();
    for (etpn::DpArcId a : dp.in_arcs(n)) {
      const etpn::DpNodeId r = dp.arc(a).from;
      if (dp.node(r).kind == etpn::DpNodeKind::Register) {
        read_pos.push_back(reg_pos[r.index()]);
        set(reads, i, read_pos.back());
      }
    }
    for (etpn::DpArcId a : dp.out_arcs(n)) {
      const etpn::DpNodeId w = dp.arc(a).to;
      if (dp.node(w).kind == etpn::DpNodeKind::Register) {
        write_pos.push_back(reg_pos[w.index()]);
        set(writes, i, write_pos.back());
      }
    }
    for (const std::uint32_t r : read_pos) {
      for (const std::uint32_t w : write_pos) {
        set(rw, r, w);
        set(rw, w, r);
      }
    }
  }
  // (reads_i u reads_j) intersects (writes_i u writes_j)?
  auto module_loop = [&](std::size_t i, std::size_t j) {
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t r = reads[i * words + w] | reads[j * words + w];
      const std::uint64_t wr = writes[i * words + w] | writes[j * words + w];
      any |= r & wr;
    }
    return any != 0;
  };

  // Module pairs: a module's merge class, once per module, decides which
  // pairs Binding::can_merge_modules admits.
  std::vector<int> merge_class(m);
  std::vector<std::size_t> class_size;
  for (std::size_t i = 0; i < m; ++i) {
    merge_class[i] = b.merge_class(g, modules[i]);
    const auto c = static_cast<std::size_t>(merge_class[i]);
    if (c >= class_size.size()) class_size.resize(c + 1, 0);
    ++class_size[c];
  }
  std::size_t pairs = regs.size() * (regs.size() - 1) / 2;
  for (const std::size_t n : class_size) pairs += n * (n - 1) / 2;
  stream.reserve(pairs);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      if (merge_class[i] != merge_class[j]) continue;
      const bool self_loop = module_loop(i, j);
      MergeCandidate c;
      c.kind = MergeCandidate::Kind::Modules;
      c.module_a = modules[i];
      c.module_b = modules[j];
      c.creates_self_loop = self_loop;
      c.score = score_pair(i, j, self_loop);
      stream.add(c);
    }
  }

  // Register pairs: every two distinct alive registers may merge
  // (Binding::can_merge_regs).  A merged register self-loops when some
  // module reads one register of the pair and writes the other, or reads
  // and writes the same one.
  std::vector<std::uint32_t> pos(regs.size());
  for (std::size_t i = 0; i < regs.size(); ++i) {
    pos[i] = reg_pos[e.reg_node[regs[i]].index()];
  }
  for (std::size_t i = 0; i < regs.size(); ++i) {
    const bool self_i = test(rw, pos[i], pos[i]);
    for (std::size_t j = i + 1; j < regs.size(); ++j) {
      const bool self_loop =
          self_i || test(rw, pos[j], pos[j]) || test(rw, pos[i], pos[j]);
      MergeCandidate c;
      c.kind = MergeCandidate::Kind::Registers;
      c.reg_a = regs[i];
      c.reg_b = regs[j];
      c.creates_self_loop = self_loop;
      c.score = score_pair(m + i, m + j, self_loop);
      stream.add(c);
    }
  }
  return stream;
}

std::vector<MergeCandidate> select_balance_candidates(
    const dfg::Dfg& g, const etpn::Binding& b, const etpn::Etpn& e,
    const TestabilityAnalysis& analysis, int k, const BalanceOptions& options) {
  const OpReachability reach(g);
  return balance_candidates(g, b, e, analysis, reach, options)
      .take(static_cast<std::size_t>(std::max(k, 0)));
}

}  // namespace hlts::testability
