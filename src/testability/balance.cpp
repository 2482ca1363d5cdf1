#include "testability/balance.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hlts::testability {

namespace {

/// Sorted, unique register node ids read (port side) and written (result
/// side) by a module node.
void module_reg_sets(const etpn::DataPath& dp, etpn::DpNodeId m,
                     std::vector<std::uint32_t>& reads,
                     std::vector<std::uint32_t>& writes) {
  for (etpn::DpArcId a : dp.in_arcs(m)) {
    if (dp.node(dp.arc(a).from).kind == etpn::DpNodeKind::Register) {
      reads.push_back(dp.arc(a).from.value());
    }
  }
  for (etpn::DpArcId a : dp.out_arcs(m)) {
    if (dp.node(dp.arc(a).to).kind == etpn::DpNodeKind::Register) {
      writes.push_back(dp.arc(a).to.value());
    }
  }
  for (auto* v : {&reads, &writes}) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  }
}

bool intersects(const std::vector<std::uint32_t>& a,
                const std::vector<std::uint32_t>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

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

void CandidateStream::add(const MergeCandidate& c) {
  HLTS_REQUIRE(!ordered_, "CandidateStream::add after next");
  heap_.push_back({c.score, static_cast<std::uint32_t>(pool_.size())});
  pool_.push_back(c);
}

std::optional<MergeCandidate> CandidateStream::next() {
  // Heap order: x ranks below y when it scores lower, or scores the same
  // and was enumerated later.
  const auto below = [](const Entry& x, const Entry& y) {
    return x.score < y.score || (x.score == y.score && x.index > y.index);
  };
  if (!ordered_) {
    std::make_heap(heap_.begin(), heap_.end(), below);
    ordered_ = true;
  }
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), below);
    const MergeCandidate& c = pool_[heap_.back().index];
    heap_.pop_back();
    if (!c.is_modules() && oracle_.impossible(c.reg_a, c.reg_b)) continue;
    return c;
  }
  return std::nullopt;
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

  // Per-node scalar measures, once per node instead of once per pair.
  std::vector<double> c_of(dp.num_nodes(), 0.0);
  std::vector<double> o_of(dp.num_nodes(), 0.0);
  auto measure = [&](etpn::DpNodeId n) {
    c_of[n.index()] = analysis.node_controllability(n).scalar(options.lambda);
    o_of[n.index()] = analysis.node_observability(n).scalar(options.lambda);
  };
  auto score_pair = [&](etpn::DpNodeId n1, etpn::DpNodeId n2,
                        bool self_loop) -> double {
    const double c1 = c_of[n1.index()];
    const double o1 = o_of[n1.index()];
    const double c2 = c_of[n2.index()];
    const double o2 = o_of[n2.index()];
    const double merged_c = std::max(c1, c2);
    const double merged_o = std::max(o1, o2);
    // Complementarity: one node contributes controllability it has in
    // excess of its observability, the other the reverse.
    const double compl_bonus =
        std::max(0.0, c1 - o1) * std::max(0.0, o2 - c2) +
        std::max(0.0, c2 - o2) * std::max(0.0, o1 - c1);
    double score = std::min(merged_c, merged_o) +
                   options.complementarity_weight * compl_bonus;
    if (self_loop) score -= options.self_loop_penalty;
    return score;
  };

  // Module pairs.  The read/write register sets of a module are invariant
  // over the pair loop, so they are built once per module.
  std::vector<etpn::ModuleId> modules = b.alive_modules();
  std::vector<std::vector<std::uint32_t>> mod_reads(modules.size());
  std::vector<std::vector<std::uint32_t>> mod_writes(modules.size());
  std::vector<std::uint8_t> mod_self(modules.size());
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const etpn::DpNodeId n = e.module_node[modules[i]];
    module_reg_sets(dp, n, mod_reads[i], mod_writes[i]);
    mod_self[i] = intersects(mod_reads[i], mod_writes[i]);
    measure(n);
  }
  for (std::size_t i = 0; i < modules.size(); ++i) {
    for (std::size_t j = i + 1; j < modules.size(); ++j) {
      if (!b.can_merge_modules(g, modules[i], modules[j])) continue;
      // (reads_i u reads_j) intersects (writes_i u writes_j)?
      const bool self_loop = mod_self[i] || mod_self[j] ||
                             intersects(mod_reads[i], mod_writes[j]) ||
                             intersects(mod_reads[j], mod_writes[i]);
      MergeCandidate c;
      c.kind = MergeCandidate::Kind::Modules;
      c.module_a = modules[i];
      c.module_b = modules[j];
      c.creates_self_loop = self_loop;
      c.score = score_pair(e.module_node[modules[i]],
                           e.module_node[modules[j]], self_loop);
      stream.add(c);
    }
  }

  // Register pairs.  A merged register self-loops when some module reads
  // one register of the pair and writes the other (or reads and writes the
  // same one); precompute every module's (read register, written register)
  // pairs once (sorted) so the per-pair check is four binary searches
  // instead of a walk over the whole data path.
  std::vector<std::uint64_t> rw_pairs;
  for (std::size_t i = 0; i < modules.size(); ++i) {
    for (std::uint32_t r : mod_reads[i]) {
      for (std::uint32_t w : mod_writes[i]) {
        rw_pairs.push_back((std::uint64_t{r} << 32) | w);
      }
    }
  }
  std::sort(rw_pairs.begin(), rw_pairs.end());
  auto has_rw = [&](etpn::DpNodeId r, etpn::DpNodeId w) {
    return std::binary_search(rw_pairs.begin(), rw_pairs.end(),
                              (std::uint64_t{r.value()} << 32) | w.value());
  };
  std::vector<etpn::RegId> regs = b.alive_regs();
  for (etpn::RegId r : regs) measure(e.reg_node[r]);
  for (std::size_t i = 0; i < regs.size(); ++i) {
    for (std::size_t j = i + 1; j < regs.size(); ++j) {
      if (!b.can_merge_regs(regs[i], regs[j])) continue;
      etpn::DpNodeId n1 = e.reg_node[regs[i]];
      etpn::DpNodeId n2 = e.reg_node[regs[j]];
      const bool self_loop = has_rw(n1, n1) || has_rw(n1, n2) ||
                             has_rw(n2, n1) || has_rw(n2, n2);
      MergeCandidate c;
      c.kind = MergeCandidate::Kind::Registers;
      c.reg_a = regs[i];
      c.reg_b = regs[j];
      c.creates_self_loop = self_loop;
      c.score = score_pair(n1, n2, self_loop);
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
