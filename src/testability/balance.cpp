#include "testability/balance.hpp"

#include <algorithm>
#include <set>

namespace hlts::testability {

namespace {

/// Op-level reachability over data dependences: row a has bit b set when
/// there is a path of >= 1 arc from a to b.  One flat word array, rows of
/// words_ words.
class Reachability {
 public:
  explicit Reachability(const dfg::Dfg& g)
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

  [[nodiscard]] bool reaches(dfg::OpId a, dfg::OpId b) const {
    return (bits_[a.index() * words_ + b.index() / 64] >> (b.index() % 64)) &
           1u;
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// Registers read (port side) and written (result side) by a module node.
void module_reg_sets(const etpn::DataPath& dp, etpn::DpNodeId m,
                     std::set<std::uint32_t>& reads,
                     std::set<std::uint32_t>& writes) {
  for (etpn::DpArcId a : dp.in_arcs(m)) {
    if (dp.node(dp.arc(a).from).kind == etpn::DpNodeKind::Register) {
      reads.insert(dp.arc(a).from.value());
    }
  }
  for (etpn::DpArcId a : dp.out_arcs(m)) {
    if (dp.node(dp.arc(a).to).kind == etpn::DpNodeKind::Register) {
      writes.insert(dp.arc(a).to.value());
    }
  }
}

bool intersects(const std::set<std::uint32_t>& a,
                const std::set<std::uint32_t>& b) {
  return std::any_of(a.begin(), a.end(),
                     [&](std::uint32_t x) { return b.count(x) != 0; });
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

std::string MergeCandidate::merged_label(const dfg::Dfg& g,
                                         const etpn::Binding& b) const {
  return is_modules() ? b.module_label(g, module_a) : b.reg_label(g, reg_a);
}

struct RegMergeOracle::Impl {
  const dfg::Dfg& g;
  const etpn::Binding& b;
  Reachability reach;
  /// Case (2) pairs, keyed (min_reg << 32) | max_reg; sorted, unique.
  std::vector<std::uint64_t> op_conflicts;

  Impl(const dfg::Dfg& g_in, const etpn::Binding& b_in)
      : g(g_in), b(b_in), reach(g_in) {
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
          op_conflicts.push_back((lo << 32) | hi);
        }
      }
    }
    std::sort(op_conflicts.begin(), op_conflicts.end());
    op_conflicts.erase(std::unique(op_conflicts.begin(), op_conflicts.end()),
                       op_conflicts.end());
  }
};

RegMergeOracle::RegMergeOracle(const dfg::Dfg& g, const etpn::Binding& b)
    : impl_(std::make_unique<Impl>(g, b)) {}

RegMergeOracle::~RegMergeOracle() = default;

bool RegMergeOracle::impossible(etpn::RegId ra, etpn::RegId rb) const {
  const dfg::Dfg& g = impl_->g;
  const etpn::Binding& b = impl_->b;

  // Case (2): an operation uses variables of both registers as inputs.
  const std::uint64_t lo = std::min(ra.value(), rb.value());
  const std::uint64_t hi = std::max(ra.value(), rb.value());
  if (std::binary_search(impl_->op_conflicts.begin(),
                         impl_->op_conflicts.end(), (lo << 32) | hi)) {
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
    if (vb.def.valid() && impl_->reach.reaches(va.def, vb.def)) return true;
    return std::any_of(vb.uses.begin(), vb.uses.end(), [&](dfg::OpId u) {
      return impl_->reach.reaches(va.def, u);
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
  return RegMergeOracle(g, b).impossible(ra, rb);
}

std::vector<MergeCandidate> select_balance_candidates(
    const dfg::Dfg& g, const etpn::Binding& b, const etpn::Etpn& e,
    const TestabilityAnalysis& analysis, int k, const BalanceOptions& options) {
  std::vector<MergeCandidate> candidates;
  const etpn::DataPath& dp = e.data_path;

  auto score_pair = [&](etpn::DpNodeId n1, etpn::DpNodeId n2,
                        bool self_loop) -> double {
    const double c1 = analysis.node_controllability(n1).scalar(options.lambda);
    const double o1 = analysis.node_observability(n1).scalar(options.lambda);
    const double c2 = analysis.node_controllability(n2).scalar(options.lambda);
    const double o2 = analysis.node_observability(n2).scalar(options.lambda);
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
  // over the pair loop; computing them per pair made selection quadratic in
  // set-building work on large graphs.
  std::vector<etpn::ModuleId> modules = b.alive_modules();
  std::vector<std::set<std::uint32_t>> mod_reads(modules.size());
  std::vector<std::set<std::uint32_t>> mod_writes(modules.size());
  for (std::size_t i = 0; i < modules.size(); ++i) {
    module_reg_sets(dp, e.module_node[modules[i]], mod_reads[i], mod_writes[i]);
  }
  for (std::size_t i = 0; i < modules.size(); ++i) {
    for (std::size_t j = i + 1; j < modules.size(); ++j) {
      if (!b.can_merge_modules(g, modules[i], modules[j])) continue;
      etpn::DpNodeId n1 = e.module_node[modules[i]];
      etpn::DpNodeId n2 = e.module_node[modules[j]];
      // (reads_i u reads_j) intersects (writes_i u writes_j)?
      const bool self_loop = intersects(mod_reads[i], mod_writes[i]) ||
                             intersects(mod_reads[i], mod_writes[j]) ||
                             intersects(mod_reads[j], mod_writes[i]) ||
                             intersects(mod_reads[j], mod_writes[j]);
      MergeCandidate c;
      c.kind = MergeCandidate::Kind::Modules;
      c.module_a = modules[i];
      c.module_b = modules[j];
      c.creates_self_loop = self_loop;
      c.score = score_pair(n1, n2, self_loop);
      candidates.push_back(c);
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
  const RegMergeOracle oracle(g, b);
  std::vector<etpn::RegId> regs = b.alive_regs();
  for (std::size_t i = 0; i < regs.size(); ++i) {
    for (std::size_t j = i + 1; j < regs.size(); ++j) {
      if (!b.can_merge_regs(regs[i], regs[j])) continue;
      if (oracle.impossible(regs[i], regs[j])) continue;
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
      candidates.push_back(c);
    }
  }

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const MergeCandidate& a, const MergeCandidate& b2) {
                     return a.score > b2.score;
                   });
  if (static_cast<int>(candidates.size()) > k) candidates.resize(k);
  return candidates;
}

}  // namespace hlts::testability
