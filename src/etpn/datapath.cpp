#include "etpn/datapath.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace hlts::etpn {

DataPath DataPath::dense(IndexVec<DpNodeId, DpNode> nodes,
                         IndexVec<DpArcId, DpArc> arcs,
                         IndexVec<DpArcId, PoolSpan> step_spans,
                         std::vector<int> step_pool) {
  DataPath dp;
  const std::size_t n = nodes.size();
  const std::size_t m = arcs.size();
  dp.node_alive_.assign(n, true);
  dp.arc_alive_.assign(m, true);
  dp.alive_nodes_ = n;
  dp.alive_arcs_ = m;
  // Count the degrees into the spans' lengths, turn them into offsets, and
  // place every arc by bumping its endpoints' lengths back up.
  dp.in_span_.assign(n, PoolSpan{});
  dp.out_span_.assign(n, PoolSpan{});
  for (const DpArc& arc : arcs) {
    ++dp.out_span_[arc.from].cap;
    ++dp.in_span_[arc.to].cap;
  }
  std::uint32_t off = 0;
  for (DpNodeId v : id_range<DpNodeId>(n)) {
    dp.in_span_[v].off = off;
    off += dp.in_span_[v].cap;
    dp.out_span_[v].off = off;
    off += dp.out_span_[v].cap;
  }
  dp.arc_pool_.resize(off);
  for (DpArcId a : id_range<DpArcId>(m)) {
    PoolSpan& out = dp.out_span_[arcs[a].from];
    dp.arc_pool_[out.off + out.len++] = a;
    PoolSpan& in = dp.in_span_[arcs[a].to];
    dp.arc_pool_[in.off + in.len++] = a;
  }
  dp.nodes_ = std::move(nodes);
  dp.arcs_ = std::move(arcs);
  dp.step_span_ = std::move(step_spans);
  dp.step_pool_ = std::move(step_pool);
  return dp;
}

DpNodeId DataPath::add_node(DpNode node) {
  node_alive_.push_back(true);
  in_span_.push_back(PoolSpan{});
  out_span_.push_back(PoolSpan{});
  ++alive_nodes_;
  return nodes_.push_back(std::move(node));
}

void DataPath::set_alive(DpNodeId n, bool alive) {
  if (node_alive_[n] == alive) return;
  node_alive_[n] = alive;
  alive ? ++alive_nodes_ : --alive_nodes_;
}

void DataPath::set_alive(DpArcId a, bool alive) {
  if (arc_alive_[a] == alive) return;
  arc_alive_[a] = alive;
  alive ? ++alive_arcs_ : --alive_arcs_;
}

void DataPath::list_append(PoolSpan& s, DpArcId v) {
  if (s.len < s.cap) {
    arc_pool_[s.off + s.len++] = v;
    return;
  }
  const std::uint32_t cap = s.cap == 0 ? 2 : s.cap * 2;
  const std::uint32_t off = static_cast<std::uint32_t>(arc_pool_.size());
  arc_pool_.resize(arc_pool_.size() + cap);
  if (s.len != 0) {
    std::memcpy(arc_pool_.data() + off, arc_pool_.data() + s.off,
                s.len * sizeof(DpArcId));
  }
  s.off = off;
  s.cap = cap;
  arc_pool_[s.off + s.len++] = v;
}

PoolSpan DataPath::tail_copy(std::vector<DpArcId>& pool, const DpArcId* data,
                             std::uint32_t len) {
  PoolSpan s;
  s.off = static_cast<std::uint32_t>(pool.size());
  s.len = s.cap = len;
  pool.resize(pool.size() + len);
  if (len != 0) std::memcpy(pool.data() + s.off, data, len * sizeof(DpArcId));
  return s;
}

void DataPath::rewrite_in_list(DpNodeId n, const DpArcId* data,
                               std::uint32_t len) {
  in_span_[n] = tail_copy(arc_pool_, data, len);
}

void DataPath::rewrite_out_list(DpNodeId n, const DpArcId* data,
                                std::uint32_t len) {
  out_span_[n] = tail_copy(arc_pool_, data, len);
}

void DataPath::rewrite_steps(DpArcId a, const int* data, std::uint32_t len) {
  PoolSpan s;
  s.off = static_cast<std::uint32_t>(step_pool_.size());
  s.len = s.cap = len;
  step_pool_.resize(step_pool_.size() + len);
  if (len != 0) std::memcpy(step_pool_.data() + s.off, data, len * sizeof(int));
  step_span_[a] = s;
}

void DataPath::insert_step(DpArcId a, int step) {
  PoolSpan& s = step_span_[a];
  int* base = step_pool_.data() + s.off;
  const std::size_t lo = std::lower_bound(base, base + s.len, step) - base;
  if (lo < s.len && base[lo] == step) return;
  if (s.len < s.cap) {
    std::memmove(base + lo + 1, base + lo, (s.len - lo) * sizeof(int));
    base[lo] = step;
    ++s.len;
    return;
  }
  // Relocate to the tail with slack, inserting on the way.
  const std::uint32_t cap = s.cap == 0 ? 2 : s.cap * 2;
  const std::uint32_t off = static_cast<std::uint32_t>(step_pool_.size());
  step_pool_.resize(step_pool_.size() + cap);
  base = step_pool_.data() + s.off;  // resize may have moved the pool
  int* dst = step_pool_.data() + off;
  if (lo != 0) std::memcpy(dst, base, lo * sizeof(int));
  dst[lo] = step;
  if (lo != s.len) {
    std::memcpy(dst + lo + 1, base + lo, (s.len - lo) * sizeof(int));
  }
  s.off = off;
  s.cap = cap;
  ++s.len;
}

DpArcId DataPath::add_transfer(DpNodeId from, DpNodeId to, int to_port,
                               int step) {
  HLTS_REQUIRE(nodes_.contains(from) && nodes_.contains(to),
               "add_transfer: bad node id");
  HLTS_REQUIRE(node_alive_[from] && node_alive_[to],
               "add_transfer: dead node");
  HLTS_REQUIRE(step >= 0, "add_transfer: negative step");
  for (DpArcId a : out_arcs(from)) {
    const DpArc& arc = arcs_[a];
    if (arc.to == to && arc.to_port == to_port) {
      insert_step(a, step);
      return a;
    }
  }
  DpArc arc;
  arc.from = from;
  arc.to = to;
  arc.to_port = to_port;
  arc_alive_.push_back(true);
  ++alive_arcs_;
  DpArcId id = arcs_.push_back(arc);
  step_span_.push_back(PoolSpan{});
  insert_step(id, step);
  list_append(out_span_[from], id);
  list_append(in_span_[to], id);
  return id;
}

std::vector<DpNodeId> DataPath::port_sources(DpNodeId n, int port) const {
  std::vector<DpNodeId> out;
  for (DpArcId a : in_arcs(n)) {
    const DpArc& arc = arcs_[a];
    if (arc.to_port != port) continue;
    if (std::find(out.begin(), out.end(), arc.from) == out.end()) {
      out.push_back(arc.from);
    }
  }
  return out;
}

int DataPath::num_port_sources(DpNodeId n, int port) const {
  // Quadratic in the port's in-degree, which is tiny (a handful of distinct
  // sources per multiplexer); avoids the per-call vector of port_sources().
  const util::Span<DpArcId> in = in_arcs(n);
  int distinct = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const DpArc& arc = arcs_[in[i]];
    if (arc.to_port != port) continue;
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      const DpArc& prev = arcs_[in[j]];
      if (prev.to_port == port && prev.from == arc.from) {
        seen = true;
        break;
      }
    }
    if (!seen) ++distinct;
  }
  return distinct;
}

int DataPath::num_ports(DpNodeId n) const {
  const DpNode& node = nodes_[n];
  if (node.kind == DpNodeKind::Module) {
    return dfg::op_arity(node.op_class);
  }
  return 1;
}

int DataPath::mux_count() const {
  int muxes = 0;
  for (DpNodeId n : node_ids()) {
    if (!node_alive_[n]) continue;
    for (int port = 0; port < num_ports(n); ++port) {
      if (num_port_sources(n, port) >= 2) ++muxes;
    }
  }
  return muxes;
}

int DataPath::self_loop_count() const {
  int loops = 0;
  for (DpNodeId n : node_ids()) {
    if (!node_alive_[n] || nodes_[n].kind != DpNodeKind::Register) continue;
    // Register -> module -> same register, or register -> itself.
    for (DpArcId a : out_arcs(n)) {
      const DpArc& arc = arcs_[a];
      if (arc.to == n) {
        ++loops;
        break;
      }
      if (nodes_[arc.to].kind != DpNodeKind::Module) continue;
      bool closes = false;
      for (DpArcId b : out_arcs(arc.to)) {
        if (arcs_[b].to == n) {
          closes = true;
          break;
        }
      }
      if (closes) {
        ++loops;
        break;
      }
    }
  }
  return loops;
}

DataPath::SeqDepthStats DataPath::sequential_depth() const {
  const RegisterDistances dist = register_distances();
  SeqDepthStats stats;
  for (DpNodeId n : node_ids()) {
    if (!node_alive_[n] || nodes_[n].kind != DpNodeKind::Register) continue;
    const int in = dist.d_in[n.index()];
    const int out = dist.d_out[n.index()];
    if (in < 0 || out < 0) {
      ++stats.unreachable;
      continue;
    }
    stats.max_depth = std::max(stats.max_depth, in + out);
    stats.total_depth += in + out;
  }
  return stats;
}

namespace {

using Hop = std::pair<std::uint32_t, std::uint32_t>;

bool is(const DataPath& dp, DpNodeId n, DpNodeKind kind) {
  return dp.node(n).kind == kind;
}

/// Calls `hop(r2)` for every register hop r -> r2 of register `r`: r
/// reaches r2 directly or through one module (one clocked stage).
template <typename Visit>
void each_register_hop(const DataPath& dp, DpNodeId r, Visit&& hop) {
  for (DpArcId a : dp.out_arcs(r)) {
    const DpNodeId to = dp.arc(a).to;
    if (is(dp, to, DpNodeKind::Register)) hop(to);
    if (!is(dp, to, DpNodeKind::Module)) continue;
    for (DpArcId b : dp.out_arcs(to)) {
      if (is(dp, dp.arc(b).to, DpNodeKind::Register)) hop(dp.arc(b).to);
    }
  }
}

/// Whether register `r` is loaded directly from an input port.
bool loaded_from_port(const DataPath& dp, DpNodeId r) {
  for (DpArcId a : dp.in_arcs(r)) {
    if (is(dp, dp.arc(a).from, DpNodeKind::InPort)) return true;
  }
  return false;
}

/// The register hop graph of `dp` as an arc list.  Sets the controllable
/// seeds' d_in (loaded directly from an input port) and the observable
/// seeds' d_out (feeding an output port directly or through one module) to
/// 0.
void register_hops(const DataPath& dp, std::vector<Hop>& hops,
                   std::vector<int>& d_in, std::vector<int>& d_out) {
  for (DpNodeId n : dp.node_ids()) {
    if (!dp.alive(n) || !is(dp, n, DpNodeKind::Register)) continue;
    each_register_hop(dp, n, [&](DpNodeId to) {
      hops.push_back({n.value(), to.value()});
    });
    if (loaded_from_port(dp, n)) d_in[n.index()] = 0;
    for (DpArcId a : dp.out_arcs(n)) {
      const DpNodeId to = dp.arc(a).to;
      if (is(dp, to, DpNodeKind::OutPort)) d_out[n.index()] = 0;
      if (!is(dp, to, DpNodeKind::Module)) continue;
      for (DpArcId b : dp.out_arcs(to)) {
        if (is(dp, dp.arc(b).to, DpNodeKind::OutPort)) d_out[n.index()] = 0;
      }
    }
  }
}

/// `hops` as CSR over `nodes` nodes, along the hops (`forward`) or against
/// them.
void hop_csr(const std::vector<Hop>& hops, std::size_t nodes, bool forward,
             std::vector<std::uint32_t>& begin,
             std::vector<std::uint32_t>& adj) {
  begin.assign(nodes + 1, 0);
  adj.resize(hops.size());
  for (const auto& [from, to] : hops) ++begin[(forward ? from : to) + 1];
  for (std::size_t k = 1; k < begin.size(); ++k) begin[k] += begin[k - 1];
  for (const auto& [from, to] : hops) {
    adj[begin[forward ? from : to]++] = forward ? to : from;
  }
  for (std::size_t k = begin.size() - 1; k > 0; --k) begin[k] = begin[k - 1];
  begin[0] = 0;
}

/// Breadth-first hop counts over a CSR from the nodes at distance 0.
/// Shortest hop counts do not depend on the order arcs are followed.
void hop_bfs(const std::vector<std::uint32_t>& begin,
             const std::vector<std::uint32_t>& adj, std::vector<int>& d) {
  std::vector<std::uint32_t> queue;
  queue.reserve(d.size());  // every node is queued at most once
  for (std::size_t n = 0; n < d.size(); ++n) {
    if (d[n] == 0) queue.push_back(static_cast<std::uint32_t>(n));
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    for (std::uint32_t k = begin[u]; k < begin[u + 1]; ++k) {
      if (d[adj[k]] < 0) {
        d[adj[k]] = d[u] + 1;
        queue.push_back(adj[k]);
      }
    }
  }
}

}  // namespace

DataPath::RegisterDistances DataPath::register_distances() const {
  RegisterDistances dist;
  dist.d_in.assign(nodes_.size(), -1);
  dist.d_out.assign(nodes_.size(), -1);
  std::vector<Hop> hops;
  register_hops(*this, hops, dist.d_in, dist.d_out);
  std::vector<std::uint32_t> begin, adj;
  hop_csr(hops, nodes_.size(), true, begin, adj);
  hop_bfs(begin, adj, dist.d_in);
  hop_csr(hops, nodes_.size(), false, begin, adj);
  hop_bfs(begin, adj, dist.d_out);
  return dist;
}

RegisterReach::RegisterReach(const DataPath& dp) {
  // Hops leave the registers in node order, so the forward CSR fills in
  // one pass once its size is counted: the allocations do not depend on
  // the size of the graph.
  auto is_register = [&](DpNodeId n) {
    return dp.alive(n) && is(dp, n, DpNodeKind::Register);
  };
  std::size_t hops = 0;
  for (DpNodeId n : dp.node_ids()) {
    if (is_register(n)) each_register_hop(dp, n, [&](DpNodeId) { ++hops; });
  }
  succ_.reserve(hops);
  begin_.assign(dp.num_nodes() + 1, 0);
  d_in_.assign(dp.num_nodes(), -1);
  for (DpNodeId n : dp.node_ids()) {
    begin_[n.index()] = static_cast<std::uint32_t>(succ_.size());
    if (!is_register(n)) continue;
    each_register_hop(dp, n, [&](DpNodeId to) { succ_.push_back(to.value()); });
    if (loaded_from_port(dp, n)) d_in_[n.index()] = 0;
  }
  begin_.back() = static_cast<std::uint32_t>(succ_.size());
  hop_bfs(begin_, succ_, d_in_);
}

const std::vector<int>& RegisterReach::d_in() const {
  HLTS_REQUIRE(built(), "register reach read before it was built");
  return d_in_;
}

void RegisterReach::merged_d_in(const DataPath& dp, DpNodeId into,
                                DpNodeId from, std::vector<int>& d,
                                std::vector<std::uint32_t>& queue) const {
  d = d_in();
  queue.clear();
  // Lowers v to d[u] + 1 when that is shorter; v is then settled and
  // queued.  A pruned breadth-first pass from the merger's new hops is
  // exact: a shortest path takes at most one of them, and a node whose
  // distance did not drop cannot lower its successors either.
  auto relax = [&](std::uint32_t u, std::uint32_t v) {
    if (d[v] < 0 || d[u] + 1 < d[v]) {
      d[v] = d[u] + 1;
      queue.push_back(v);
    }
  };
  const std::uint32_t a = into.value();
  const std::uint32_t b = from.value();
  if (dp.node(into).kind == DpNodeKind::Register) {
    // The merged graph identifies b with a: a's distance is the nearer of
    // the two, and a leads on to both nodes' successors.
    const int da = d[a];
    const int db = d[b];
    d[b] = -1;
    d[a] = da < 0 ? db : (db < 0 ? da : std::min(da, db));
    if (d[a] < 0) return;
    for (const std::uint32_t u : {a, b}) {
      for (std::uint32_t k = begin_[u]; k < begin_[u + 1]; ++k) {
        if (succ_[k] != a && succ_[k] != b) relax(a, succ_[k]);
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t u = queue[head];
      for (std::uint32_t k = begin_[u]; k < begin_[u + 1]; ++k) {
        if (succ_[k] != a && succ_[k] != b) relax(u, succ_[k]);
      }
    }
    return;
  }
  // Two modules: every register either one reads now reaches every
  // register either one writes, one hop on from the nearest reader.
  int nearest = -1;
  for (const DpNodeId m : {into, from}) {
    for (DpArcId arc : dp.in_arcs(m)) {
      const DpNodeId r = dp.arc(arc).from;
      if (dp.node(r).kind != DpNodeKind::Register || d[r.index()] < 0) continue;
      if (nearest < 0 || d[r.index()] < nearest) nearest = d[r.index()];
    }
  }
  if (nearest < 0) return;
  for (const DpNodeId m : {into, from}) {
    for (DpArcId arc : dp.out_arcs(m)) {
      const DpNodeId w = dp.arc(arc).to;
      if (dp.node(w).kind != DpNodeKind::Register) continue;
      if (d[w.index()] < 0 || nearest + 1 < d[w.index()]) {
        d[w.index()] = nearest + 1;
        queue.push_back(w.value());
      }
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    for (std::uint32_t k = begin_[u]; k < begin_[u + 1]; ++k) {
      relax(u, succ_[k]);
    }
  }
}

}  // namespace hlts::etpn
