#include "etpn/datapath.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/error.hpp"

namespace hlts::etpn {

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

void DataPath::compact_pools() {
  std::vector<DpArcId> arcs;
  arcs.reserve(arc_pool_.size());
  for (DpNodeId n : node_ids()) {
    PoolSpan s = in_span_[n];
    const std::uint32_t off = static_cast<std::uint32_t>(arcs.size());
    arcs.insert(arcs.end(), arc_pool_.begin() + s.off,
                arc_pool_.begin() + s.off + s.len);
    in_span_[n] = PoolSpan{off, s.len, s.len};
    s = out_span_[n];
    const std::uint32_t off2 = static_cast<std::uint32_t>(arcs.size());
    arcs.insert(arcs.end(), arc_pool_.begin() + s.off,
                arc_pool_.begin() + s.off + s.len);
    out_span_[n] = PoolSpan{off2, s.len, s.len};
  }
  arc_pool_ = std::move(arcs);

  std::vector<int> steps;
  steps.reserve(step_pool_.size());
  for (DpArcId a : arc_ids()) {
    const PoolSpan s = step_span_[a];
    const std::uint32_t off = static_cast<std::uint32_t>(steps.size());
    steps.insert(steps.end(), step_pool_.begin() + s.off,
                 step_pool_.begin() + s.off + s.len);
    step_span_[a] = PoolSpan{off, s.len, s.len};
  }
  step_pool_ = std::move(steps);
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

DataPath::RegisterDistances DataPath::register_distances() const {
  RegisterDistances dist;
  dist.d_in.assign(nodes_.size(), -1);
  dist.d_out.assign(nodes_.size(), -1);
  auto is = [&](DpNodeId n, DpNodeKind kind) { return nodes_[n].kind == kind; };

  // Register hop graph: r1 -> r2 when r1 reaches r2 through at most one
  // module (one clocked stage), as an arc list.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hops;
  std::vector<std::uint32_t> queue_in, queue_out;  // the BFS seeds
  for (DpNodeId n : node_ids()) {
    if (!node_alive_[n] || !is(n, DpNodeKind::Register)) continue;
    for (DpArcId a : out_arcs(n)) {
      const DpNodeId to = arcs_[a].to;
      if (is(to, DpNodeKind::Register)) hops.push_back({n.value(), to.value()});
      if (!is(to, DpNodeKind::Module)) continue;
      for (DpArcId b : out_arcs(to)) {
        if (is(arcs_[b].to, DpNodeKind::Register)) {
          hops.push_back({n.value(), arcs_[b].to.value()});
        }
      }
    }
    // Controllable seed: loaded directly from an input port.
    for (DpArcId a : in_arcs(n)) {
      if (is(arcs_[a].from, DpNodeKind::InPort)) dist.d_in[n.index()] = 0;
    }
    // Observable seed: feeds an output port directly or through one module.
    for (DpArcId a : out_arcs(n)) {
      const DpNodeId to = arcs_[a].to;
      if (is(to, DpNodeKind::OutPort)) dist.d_out[n.index()] = 0;
      if (!is(to, DpNodeKind::Module)) continue;
      for (DpArcId b : out_arcs(to)) {
        if (is(arcs_[b].to, DpNodeKind::OutPort)) dist.d_out[n.index()] = 0;
      }
    }
    if (dist.d_in[n.index()] == 0) queue_in.push_back(n.value());
    if (dist.d_out[n.index()] == 0) queue_out.push_back(n.value());
  }

  // Breadth-first hop counts from the seeds, along the hops (d_in) or
  // against them (d_out), over the hops as CSR.  Shortest hop counts do not
  // depend on the order arcs are followed.
  std::vector<std::uint32_t> begin(nodes_.size() + 1);
  std::vector<std::uint32_t> adj(hops.size());
  auto bfs = [&](std::vector<int>& d, std::vector<std::uint32_t>& queue,
                 bool forward) {
    std::fill(begin.begin(), begin.end(), 0);
    for (const auto& [from, to] : hops) ++begin[(forward ? from : to) + 1];
    for (std::size_t k = 1; k < begin.size(); ++k) begin[k] += begin[k - 1];
    for (const auto& [from, to] : hops) {
      adj[begin[forward ? from : to]++] = forward ? to : from;
    }
    for (std::size_t k = begin.size() - 1; k > 0; --k) begin[k] = begin[k - 1];
    begin[0] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t u = queue[head];
      for (std::uint32_t k = begin[u]; k < begin[u + 1]; ++k) {
        if (d[adj[k]] < 0) {
          d[adj[k]] = d[u] + 1;
          queue.push_back(adj[k]);
        }
      }
    }
  };
  bfs(dist.d_in, queue_in, true);
  bfs(dist.d_out, queue_out, false);
  return dist;
}

std::string DataPath::to_dot() const {
  std::ostringstream os;
  os << "digraph datapath {\n  rankdir=TB;\n";
  for (DpNodeId n : node_ids()) {
    if (!node_alive_[n]) continue;
    const DpNode& node = nodes_[n];
    const char* shape = "box";
    switch (node.kind) {
      case DpNodeKind::InPort: shape = "invtriangle"; break;
      case DpNodeKind::OutPort: shape = "triangle"; break;
      case DpNodeKind::Register: shape = "box"; break;
      case DpNodeKind::Module: shape = "oval"; break;
    }
    os << "  n" << n.value() << " [label=\"" << node.name << "\" shape=" << shape
       << "];\n";
  }
  for (DpArcId a : arc_ids()) {
    if (!arc_alive_[a]) continue;
    const DpArc& arc = arcs_[a];
    os << "  n" << arc.from.value() << " -> n" << arc.to.value() << " [label=\"";
    const util::Span<int> st = steps(a);
    for (std::size_t i = 0; i < st.size(); ++i) {
      if (i) os << ",";
      os << "S" << st[i];
    }
    os << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace hlts::etpn
