// ETPN data path: a directed graph whose nodes represent storage
// (registers), manipulation of data (functional modules) and the interface
// (input/output ports), and whose arcs represent guarded data transfers.
//
// Each arc records the control steps in which its transfer is active -- the
// link between the data path and the control Petri net ("control states in
// the control part controlling the data transfers in the data path").
//
// Storage layout (structure-of-arrays): adjacency lists and step sets are
// *spans into two shared pools* (arc_pool_ / step_pool_) instead of one
// heap vector per node/arc.  Copying a DataPath is a handful of flat
// memcpy-able vectors (the per-trial workspace refresh), and the merge
// patcher rewrites lists by appending fresh spans at the pool tail and
// truncating back on revert -- the pool tail acts as the trial arena, so a
// steady-state apply/revert cycle performs zero heap allocations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/dfg.hpp"
#include "etpn/binding.hpp"
#include "util/ids.hpp"
#include "util/span.hpp"

namespace hlts::etpn {

struct DpNodeTag {};
struct DpArcTag {};
using DpNodeId = Id<DpNodeTag>;
using DpArcId = Id<DpArcTag>;

enum class DpNodeKind {
  InPort,    ///< primary data input
  OutPort,   ///< primary data output (incl. condition signals to the controller)
  Register,  ///< storage node
  Module,    ///< functional module (ALU / multiplier / ...)
};

struct DpNode {
  DpNodeKind kind = DpNodeKind::Register;
  std::string name;
  /// Valid when kind == Module.
  ModuleId module;
  /// Valid when kind == Register.
  RegId reg;
  /// Valid when kind == InPort/OutPort: the variable carried.
  dfg::VarId port_var;
  /// Valid when kind == Module: the operation class implemented.
  dfg::OpKind op_class = dfg::OpKind::Add;
};

struct DpArc {
  DpNodeId from;
  DpNodeId to;
  /// Input port index at the destination (0/1 for module operand ports; 0
  /// for registers and out-ports).
  int to_port = 0;
};

/// A [off, off+len) window (with slack up to cap) into one of the shared
/// pools.  POD on purpose: the merge patcher saves and restores these by
/// value as its undo log.
struct PoolSpan {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
  std::uint32_t cap = 0;

  friend bool operator==(const PoolSpan&, const PoolSpan&) = default;
};

class DataPath {
 public:
  DpNodeId add_node(DpNode node);
  /// Adds an arc, or extends the step set of an existing identical arc.
  DpArcId add_transfer(DpNodeId from, DpNodeId to, int to_port, int step);

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_arcs() const { return arcs_.size(); }

  /// --- aliveness -----------------------------------------------------------
  // In-place transformation passes (etpn/patch) retire merged-away nodes and
  // deduplicated arcs as *tombstones* instead of erasing them, so ids held by
  // analysis tables (testability CC/CO vectors, Etpn node maps) stay stable
  // across a synthesis run.  Dead arcs are removed from their endpoints' arc
  // lists; dead nodes keep empty lists.  Every structural query and every
  // consumer pass skips tombstones, which keeps all derived quantities equal
  // to those of a freshly built compact graph.
  [[nodiscard]] bool alive(DpNodeId n) const { return node_alive_[n]; }
  [[nodiscard]] bool alive(DpArcId a) const { return arc_alive_[a]; }
  [[nodiscard]] std::size_t num_alive_nodes() const { return alive_nodes_; }
  [[nodiscard]] std::size_t num_alive_arcs() const { return alive_arcs_; }
  [[nodiscard]] const DpNode& node(DpNodeId n) const { return nodes_[n]; }
  [[nodiscard]] const DpArc& arc(DpArcId a) const { return arcs_[a]; }
  /// Mutable node/arc access for transformation passes and corruption tests.
  [[nodiscard]] DpNode& node(DpNodeId n) { return nodes_[n]; }
  [[nodiscard]] DpArc& arc(DpArcId a) { return arcs_[a]; }

  /// --- adjacency and step sets (span views into the pools) -----------------
  // Views are valid until the next structural mutation of the graph (a pool
  // relocation moves data); take them fresh per use, never store them.
  [[nodiscard]] util::Span<DpArcId> in_arcs(DpNodeId n) const {
    return view(arc_pool_, in_span_[n]);
  }
  [[nodiscard]] util::Span<DpArcId> out_arcs(DpNodeId n) const {
    return view(arc_pool_, out_span_[n]);
  }
  [[nodiscard]] std::size_t in_degree(DpNodeId n) const {
    return in_span_[n].len;
  }
  [[nodiscard]] std::size_t out_degree(DpNodeId n) const {
    return out_span_[n].len;
  }
  /// Control steps in which this arc's transfer is active (sorted, unique).
  /// Step 0 is the primary-input load step.
  [[nodiscard]] util::Span<int> steps(DpArcId a) const {
    return view(step_pool_, step_span_[a]);
  }

  /// Flips an aliveness flag, maintaining the alive counts.  List surgery
  /// (detaching a dead arc from its endpoints) is the caller's job; see
  /// etpn/patch for the invariant-preserving merge patcher.
  void set_alive(DpNodeId n, bool alive);
  void set_alive(DpArcId a, bool alive);
  [[nodiscard]] IdRange<DpNodeId> node_ids() const {
    return id_range<DpNodeId>(nodes_.size());
  }
  [[nodiscard]] IdRange<DpArcId> arc_ids() const {
    return id_range<DpArcId>(arcs_.size());
  }

  /// --- layout surgery (etpn/patch, corruption tests) -----------------------
  // The patcher's protocol: record the pool marks, save the PoolSpan of
  // every touched node/arc, rewrite lists as fresh spans at the pool tail,
  // and on revert restore the saved spans and truncate the pools back to
  // the marks.  All rewritten data lives above the marks, all saved spans
  // point below them, so the truncation exactly reclaims the patch.
  [[nodiscard]] PoolSpan in_list_span(DpNodeId n) const { return in_span_[n]; }
  [[nodiscard]] PoolSpan out_list_span(DpNodeId n) const {
    return out_span_[n];
  }
  [[nodiscard]] PoolSpan step_list_span(DpArcId a) const {
    return step_span_[a];
  }
  void set_in_list_span(DpNodeId n, PoolSpan s) { in_span_[n] = s; }
  void set_out_list_span(DpNodeId n, PoolSpan s) { out_span_[n] = s; }
  void set_step_list_span(DpArcId a, PoolSpan s) { step_span_[a] = s; }
  [[nodiscard]] std::size_t arc_pool_size() const { return arc_pool_.size(); }
  [[nodiscard]] std::size_t step_pool_size() const { return step_pool_.size(); }
  void truncate_arc_pool(std::size_t mark) { arc_pool_.resize(mark); }
  void truncate_step_pool(std::size_t mark) { step_pool_.resize(mark); }
  /// Retargets `n`'s in/out list to a fresh tight span at the pool tail
  /// holding `data[0..len)`.
  void rewrite_in_list(DpNodeId n, const DpArcId* data, std::uint32_t len);
  void rewrite_out_list(DpNodeId n, const DpArcId* data, std::uint32_t len);
  /// Retargets `a`'s step set to a fresh tight span at the pool tail.
  void rewrite_steps(DpArcId a, const int* data, std::uint32_t len);
  /// Inserts `step` into `a`'s sorted step set (no-op when present),
  /// growing in place when slack allows, else relocating to the tail.
  void insert_step(DpArcId a, int step);

  /// Squeezes relocation slack out of the pools and re-lays lists in id
  /// order (fresh-build layout).  build_etpn calls it once; never call it
  /// with an outstanding un-reverted MergePatch, whose saved spans would be
  /// invalidated.
  void compact_pools();

  /// Distinct sources feeding input port `port` of `n`.
  [[nodiscard]] std::vector<DpNodeId> port_sources(DpNodeId n, int port) const;
  /// Number of distinct sources feeding input port `port` of `n`, without
  /// materializing them (allocation-free; in-degrees are small).
  [[nodiscard]] int num_port_sources(DpNodeId n, int port) const;
  /// Number of input ports of `n` (2 for two-operand modules, else 1).
  [[nodiscard]] int num_ports(DpNodeId n) const;

  /// Number of multiplexers: input ports fed by two or more distinct
  /// sources (each such port needs one multiplexer in front of it).
  [[nodiscard]] int mux_count() const;

  /// Number of self-loops: registers that feed a module which feeds the
  /// same register back.  Self-loops are the structures BIST-oriented work
  /// (Papachristou, Mujumdar) tries hardest to avoid.
  [[nodiscard]] int self_loop_count() const;

  /// Structural sequential depth: for each register, the number of
  /// register-to-register stages on the shortest path from a primary-input-
  /// loaded register to it plus from it to a primary-output-observed
  /// register; returns {max, sum} over registers.  This is the quantity
  /// rule SR1 ("reduce the sequential depth from a controllable register to
  /// an observable register") minimizes.
  struct SeqDepthStats {
    int max_depth = 0;
    int total_depth = 0;
    int unreachable = 0;  ///< registers with no PI->reg->PO path at all
  };
  [[nodiscard]] SeqDepthStats sequential_depth() const;

  /// Per-node register distances: d_in = register hops from the nearest
  /// primary-input-loaded register (0 = loaded from a port), d_out =
  /// register hops to the nearest observation point.  -1 where unreachable
  /// or not a register.  sequential_depth() is a summary of these.
  struct RegisterDistances {
    std::vector<int> d_in;
    std::vector<int> d_out;
  };
  [[nodiscard]] RegisterDistances register_distances() const;

  [[nodiscard]] std::string to_dot() const;

 private:
  template <typename T>
  [[nodiscard]] static util::Span<T> view(const std::vector<T>& pool,
                                          PoolSpan s) {
    return util::Span<T>(pool.data() + s.off, s.len);
  }
  void list_append(PoolSpan& s, DpArcId v);
  PoolSpan tail_copy(std::vector<DpArcId>& pool, const DpArcId* data,
                     std::uint32_t len);

  IndexVec<DpNodeId, DpNode> nodes_;
  IndexVec<DpArcId, DpArc> arcs_;
  IndexVec<DpNodeId, bool> node_alive_;
  IndexVec<DpArcId, bool> arc_alive_;
  IndexVec<DpNodeId, PoolSpan> in_span_;
  IndexVec<DpNodeId, PoolSpan> out_span_;
  IndexVec<DpArcId, PoolSpan> step_span_;
  std::vector<DpArcId> arc_pool_;
  std::vector<int> step_pool_;
  std::size_t alive_nodes_ = 0;
  std::size_t alive_arcs_ = 0;
};

}  // namespace hlts::etpn
