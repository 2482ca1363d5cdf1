// Scheduling-constraint graph.
//
// Merging two modules imposes "these operations execute in different control
// steps, in this order"; merging two registers imposes "this variable's last
// use precedes that variable's definition".  Both become weighted precedence
// arcs over operations:
//
//   weight 1  -- strict ordering (consumer runs in a later step than
//                producer; module-sharing ops occupy distinct steps),
//   weight 0  -- same-step-allowed ordering (a register may be written at
//                the clock edge that ends the step in which its previous
//                value is last read).
//
// A schedule is derived by longest path (constrained ASAP).  A cycle in the
// graph means the constraint set is infeasible.
//
// The graph is a reusable solver for the rescheduler's order search.  The
// data-dependence arcs and the variable read/write tables depend on the DFG
// only; they live in ConstraintTables, which a graph either owns (reset(g))
// or shares with other graphs (reset(tables)), so one Algorithm-1 run
// builds them once.  The order decisions are module chains and
// register chains, stored as links, not arc lists: swapping two adjacent
// chain members changes at most three arcs (module chains) or the
// last-read -> definition arcs of the two variables (register chains).
// try_swap_*() evaluates such a swap by re-propagating longest paths, and
// checking for cycles, only over the forward cone of the operations whose
// incoming arcs changed; keep() or revert() then settles it.  Steps outside
// the cone cannot change, and the least solution of a constraint system
// does not depend on the order Kahn's algorithm pops ready operations, so
// every length and schedule equals a from-scratch solve of the same arcs.
// From a cyclic incumbent most swaps are rejected before they are applied:
// a swap reverses one chain link, every other arc it removes has a
// replacement path, so a witness cycle that avoids the reversed link
// survives, and with two or more cyclic components no single swap breaks
// them all.
//
// A base makes one graph serve every trial merger of an iteration.
// save_base() records the solved chains of the committed design;
// merge_*_chains() appends one chain to another (a merger of their groups),
// solve_merge() re-solves only the forward cone of the ops whose incoming
// chain links changed, and restore_base() undoes the merge and every swap
// kept since, and restores the base's incumbent.
//
// Cycles can also be named and checked without solving.  A cycle is a list
// of (op, kind of the arc leaving it) pairs: component_cycle() reads one
// off the labelled incumbent, swap_cycle() one off a rejected swap's cone.  After link_merge() -- the merge linked, nothing solved --
// has_cycle() and has_cycle_after_swap() check that such a cycle is present
// in O(its length); the rescheduler builds its cycle certificates on them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dfg/dfg.hpp"
#include "sched/schedule.hpp"
#include "util/ids.hpp"

namespace hlts::sched {

/// The DFG-derived half of a constraint graph: data-dependence arcs (as a
/// list and as CSR), each variable's definition and lifetime-ending ops,
/// the inverse, and which variables are born at load time or held to the
/// end.  Immutable once built, so graphs on several threads may share one.
class ConstraintTables {
 public:
  ConstraintTables() = default;
  explicit ConstraintTables(const dfg::Dfg& g) { assign(g); }

  /// Rebuilds the tables for `g`, keeping buffer capacity.
  void assign(const dfg::Dfg& g);

  [[nodiscard]] std::size_t num_ops() const { return num_ops_; }
  [[nodiscard]] std::size_t num_vars() const { return var_def_.size(); }

 private:
  friend class ConstraintGraph;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint8_t kBornAtLoad = 1;  ///< primary input
  static constexpr std::uint8_t kHeldToEnd = 2;   ///< registered output

  struct Arc {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    int weight = 1;
  };
  /// Appends a fixed arc; the CSR is rebuilt by the next link().
  void add_arc(Arc a);
  /// Builds the fixed-arc CSR from the arc list if it is stale.
  void link();

  std::size_t num_ops_ = 0;
  bool linked_ = false;  ///< the CSR matches the arc list
  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> succ_begin_, pred_begin_;  ///< size num_ops + 1
  std::vector<Arc> succ_, pred_;
  // The ops whose step bounds a variable's lifetime end (its readers, else
  // its definition), the inverse, and definitions.
  std::vector<std::uint32_t> release_begin_, release_ops_;  ///< per var
  std::vector<std::uint32_t> released_begin_, released_vars_;  ///< per op
  std::vector<std::uint32_t> var_def_;  ///< per var; kNone for PIs
  std::vector<std::uint32_t> op_output_;  ///< per op
  std::vector<std::uint8_t> var_flags_;  ///< per var: kBornAtLoad|kHeldToEnd
};

class ConstraintGraph {
 public:
  /// Where an arc comes from: fixed (data dependence or add_arc), a module
  /// chain link or a register chain link.  Also names a swap or a merge.
  enum class ArcKind : std::uint8_t { None, Fixed, Module, Register };
  /// One arc of a cycle: it leaves `op` and enters the op of the next arc
  /// (the first arc's, after the last).
  struct CycleArc {
    std::uint32_t op = 0;
    ArcKind kind = ArcKind::None;
  };

  ConstraintGraph() = default;
  /// Builds a graph seeded with the data-dependence arcs of `g` (weight 1).
  explicit ConstraintGraph(const dfg::Dfg& g);

  /// Re-seeds the graph with the data-dependence arcs of `g`, in tables of
  /// its own, dropping every other arc, every chain and the base; buffer
  /// capacity is kept.
  void reset(const dfg::Dfg& g);
  /// As above, sharing `tables` (which must outlive the graph's use of
  /// them) instead of building its own.
  void reset(const ConstraintTables& tables);

  /// Adds step(to) >= step(from) + weight.  Duplicate arcs are kept; they
  /// are harmless for longest-path.  Needs the graph's own tables.
  void add_arc(dfg::OpId from, dfg::OpId to, int weight);

  /// Appends a module chain: each op runs in a later step than the one
  /// before it (weight-1 arcs between neighbours).  Returns the stored
  /// chain, which the caller may reorder in place until the next solve.
  std::span<dfg::OpId> add_module_chain(std::span<const dfg::OpId> ops);

  /// Appends a register chain: each variable is written no earlier than the
  /// step in which the one before it is last read -- weight-0 arcs from the
  /// earlier variable's readers (its definition when it has none) to the
  /// later variable's definition.  A chain member after the first with no
  /// defining operation (a primary input) makes the graph infeasible, and
  /// so does a chain holding two primary inputs (born together at load
  /// time) or two registered primary outputs (held together to the end).
  /// Returns the stored chain, reorderable until the next solve.
  std::span<dfg::VarId> add_register_chain(std::span<const dfg::VarId> vars);

  [[nodiscard]] std::size_t num_ops() const { return tables().num_ops(); }
  [[nodiscard]] std::size_t num_module_chains() const {
    return module_chain_begin_.size();
  }
  [[nodiscard]] std::size_t num_register_chains() const {
    return register_chain_begin_.size();
  }
  /// Current order of module chain `c` (swaps already applied).
  [[nodiscard]] std::span<const dfg::OpId> module_chain(std::size_t c) const;
  [[nodiscard]] std::span<const dfg::VarId> register_chain(
      std::size_t c) const;
  /// True when some register chain holds two primary inputs or two
  /// registered primary outputs; no order of any chain is then feasible.
  [[nodiscard]] bool contradicted() const { return contradictions_ > 0; }

  /// Constrained-ASAP schedule: the componentwise-minimal schedule with all
  /// steps >= 1 satisfying every arc.  Returns nullopt if the constraints
  /// are cyclic (infeasible).  Solves the whole graph and makes the result
  /// the incumbent that try_swap_*() starts from.
  [[nodiscard]] std::optional<Schedule> solve();

  /// Shorthand for solve()->length(); nullopt when infeasible.
  [[nodiscard]] std::optional<int> schedule_length();

  /// The incumbent schedule (last solve, as amended by kept swaps).
  [[nodiscard]] std::optional<Schedule> schedule() const;

  /// Number of cyclic strongly connected components of the incumbent (0
  /// when it is acyclic).  When it is two or more, every single swap leaves
  /// a cycle, so try_swap_*() returns nullopt until a swap is kept.
  [[nodiscard]] std::uint32_t cyclic_components();
  /// A cycle inside cyclic component `c` (< cyclic_components()); replaces
  /// `out`.  With one component it is the witness: a swap that reverses
  /// none of its chain links leaves it a closed walk, so try_swap_*()
  /// applies only swaps that reverse one.
  void component_cycle(std::uint32_t c, std::vector<CycleArc>& out);

  /// Tentatively swaps members `i` and `i + 1` of module chain `c` and
  /// returns the schedule length of the resulting graph (nullopt when it is
  /// infeasible).  Needs a solved incumbent; must be followed by keep() or
  /// revert() before the next edit.  A swap that surely leaves a cycle is
  /// rejected without being applied.
  [[nodiscard]] std::optional<int> try_swap_module(std::size_t c,
                                                   std::size_t i);
  /// As try_swap_module, for register chain `c`.
  [[nodiscard]] std::optional<int> try_swap_register(std::size_t c,
                                                     std::size_t i);
  /// After a try_swap_*() that applied its swap and left the graph cyclic:
  /// one cycle of the swapped graph, from the ops its cone solve left
  /// unresolved, into `out`.  False, `out` untouched, when the swap was
  /// rejected unapplied or its cone has no cycle.  Before keep()/revert().
  bool swap_cycle(std::vector<CycleArc>& out);
  /// Makes the tentative swap part of the incumbent.
  void keep();
  /// Restores the order and incumbent from before the tentative swap.
  void revert();

  /// Makes the solved incumbent, with no swap pending, the base that
  /// restore_base() returns to.  Adding a chain or an arc drops the base.
  void save_base();
  /// Appends module chain `from` to chain `into` and empties `from`, as a
  /// merger of the two modules does; returns the merged chain, which the
  /// caller may reorder in place before solve_merge().  At most one merge
  /// per base, made before any swap.
  std::span<dfg::OpId> merge_module_chains(std::size_t into, std::size_t from);
  /// As merge_module_chains, for register chains.
  std::span<dfg::VarId> merge_register_chains(std::size_t into,
                                              std::size_t from);
  /// Links the merged chain without solving: the incumbent no longer
  /// matches the arcs, so only has_cycle*() checks may follow before
  /// solve_merge() or restore_base().
  void link_merge();
  /// Links the merged chain (unless link_merge() did) and re-solves the
  /// forward cone of the ops whose incoming chain arcs changed, the rest of
  /// the base incumbent standing; the incumbent then equals a from-scratch
  /// solve of the merged graph.  Returns its length (nullopt when
  /// infeasible).
  std::optional<int> solve_merge();
  /// Undoes a pending swap, every swap kept since save_base() and the
  /// merge, and restores the base's incumbent.
  void restore_base();

  /// Whether every arc of `cycle` is in the linked graph (false when empty).
  [[nodiscard]] bool has_cycle(std::span<const CycleArc> cycle) const;
  /// Whether `cycle` is in the linked graph once the chain link that arc
  /// `j` of `on` stands for is swapped -- its two ends exchanged in their
  /// chain, as try_swap_*() does.  Arc j must be a chain link of the graph.
  /// The graph is unchanged on return.
  [[nodiscard]] bool has_cycle_after_swap(std::span<const CycleArc> on,
                                          std::size_t j,
                                          std::span<const CycleArc> cycle);
  /// The register-chain link a Register arc into `head` stands for: the
  /// earlier variable and the later one, which `head` defines.
  [[nodiscard]] std::pair<dfg::VarId, dfg::VarId> register_link_into(
      std::uint32_t head) const;

 private:
  static constexpr std::uint32_t kNone = ConstraintTables::kNone;

  [[nodiscard]] const ConstraintTables& tables() const {
    return shared_ != nullptr ? *shared_ : own_;
  }
  /// Drops the chains, the base and every pending edit.
  void clear_chains();
  /// Builds the fixed-arc CSR (own tables) and the chain links.
  void link();
  /// Sets the links of `chain`'s members to follow its order; with
  /// `seed_changed`, adds to the cone the ops whose incoming chain arc
  /// changed.
  void link_module_chain(std::span<const dfg::OpId> chain, bool seed_changed);
  void link_register_chain(std::span<const dfg::VarId> chain,
                           bool seed_changed);
  /// Swaps members i, i+1 of a chain in storage and in the links; applying
  /// it twice restores both.
  void swap_module(std::size_t c, std::size_t i);
  void swap_register(std::size_t c, std::size_t i);
  /// Swaps neighbours a -> b of a module (register) chain in the links only;
  /// swapping b -> a restores them.
  void relink_module(std::uint32_t a, std::uint32_t b);
  void relink_register(std::uint32_t x, std::uint32_t y);
  /// Whether the graph has an arc of `kind` from `u` to `v`.
  [[nodiscard]] bool has_arc(std::uint32_t u, ArcKind kind,
                             std::uint32_t v) const;
  /// Applies the pending swap (register swaps also update undefined_).
  void apply_pending();
  /// merge_*_chains for one chain kind: its member storage and per-chain
  /// begins and sizes.
  template <typename T>
  std::span<T> append_chain(ArcKind kind, std::vector<T>& items,
                            std::vector<std::uint32_t>& begins,
                            std::vector<std::uint32_t>& sizes,
                            std::size_t into, std::size_t from);
  /// Count of register-chain pairs whose later member has no definition,
  /// over the pairs a swap at position i of chain c touches.
  [[nodiscard]] int undefined_pairs(std::size_t c, std::size_t i) const;
  /// Count of members after the first with no definition.
  [[nodiscard]] int undefined_members(std::span<const dfg::VarId> chain) const;
  /// Whether a register chain holds two PIs or two registered POs.
  [[nodiscard]] bool contradictory(std::span<const dfg::VarId> chain) const;
  /// Marks the forward closure of cone_ (the seeds) and appends it to cone_.
  void close_cone();
  /// Longest path over cone_, given the incumbent steps outside it; leaves
  /// the cone's steps in value_ and unresolved ops with indegree_ > 0.
  /// Returns the new length, or nullopt when the cone has a cycle, the
  /// incumbent's unresolved ops are not all inside it, or a register chain
  /// has an undefined later member or is contradicted.
  std::optional<int> solve_cone();
  /// Writes a solve_cone() result into the incumbent.
  void commit_cone();
  /// Solves the whole (linked) graph as one cone into the incumbent.
  std::optional<int> solve_all();
  /// Starts a new cone mark generation.
  void next_epoch();
  /// Checks a swap may start, records it as pending, labels the
  /// incumbent's cycles if needed, and opens an empty cone.
  void begin_edit(ArcKind kind, std::size_t c, std::size_t i);
  /// Adds `op` (kNone is ignored) to the cone's seeds.
  void seed(std::uint32_t op);
  /// False when a cycle of the incumbent surely survives the pending swap:
  /// the incumbent is cyclic and lacks a single cyclic component whose
  /// witness cycle enters `reversed` -- the head of the chain arc the swap
  /// reverses -- through that arc.  Needs the labels begin_edit() made.
  [[nodiscard]] bool may_break_cycles(std::uint32_t reversed) const;
  /// Labels the incumbent's cyclic strongly connected components and, when
  /// there is exactly one, finds a witness cycle in it.
  void label_cycles();
  /// Walks from cyclic component c's root inside the component until an op
  /// repeats; the cycle that closed replaces `out`.
  void walk_component(std::uint32_t c, std::vector<CycleArc>& out);
  /// The component label of `op` (kNone off every cyclic component).
  [[nodiscard]] std::uint32_t cycle_of(std::uint32_t op) const {
    return label_mark_[op] == label_epoch_ ? cycle_of_[op] : kNone;
  }
  /// Kind of the witness-cycle arc entering `op` (None off the cycle).
  [[nodiscard]] ArcKind witness_in(std::uint32_t op) const {
    return label_mark_[op] == label_epoch_ ? witness_in_[op] : ArcKind::None;
  }
  /// Whether the walk in walk_ has visited `v`: a walk sets local_ of each
  /// op it visits to the op's index in walk_.
  [[nodiscard]] bool walked(std::uint32_t v) const {
    return local_[v] < walk_.size() && walk_[local_[v]].first == v;
  }
  /// Calls f(from, weight, kind) for every arc into `v`.
  template <typename F>
  void for_each_pred(std::uint32_t v, F&& f) const;
  /// Calls f(to, weight, kind) for every arc out of `u`: fixed arcs first,
  /// then the module link, then the register links.
  template <typename F>
  void for_each_succ(std::uint32_t u, F&& f) const;

  ConstraintTables own_;
  const ConstraintTables* shared_ = nullptr;  ///< else own_ is used
  bool linked_ = false;  ///< chain links match the chains
  bool solved_ = false;  ///< the incumbent below is valid

  // Chains: flat storage plus doubly linked neighbours.
  std::vector<std::uint32_t> module_chain_begin_, module_chain_size_;
  std::vector<std::uint32_t> register_chain_begin_, register_chain_size_;
  std::vector<dfg::OpId> module_chain_ops_;
  std::vector<dfg::VarId> register_chain_vars_;
  std::vector<std::uint8_t> register_chain_contradicted_;
  std::vector<std::uint32_t> module_next_, module_prev_;      ///< per op
  std::vector<std::uint32_t> register_next_, register_prev_;  ///< per var
  int undefined_ = 0;  ///< register-chain pairs with an undefined later var
  int contradictions_ = 0;  ///< contradicted register chains

  // Incumbent solution: steps of resolved ops, a histogram of those steps
  // (for the maximum outside a cone), and the ops a cycle left unresolved.
  std::vector<int> step_;
  std::vector<std::uint8_t> resolved_;
  std::vector<std::uint32_t> step_count_;  ///< per step value
  int top_ = 0;  ///< largest resolved step
  std::vector<std::uint32_t> unresolved_;

  // Cone scratch.
  std::vector<std::uint32_t> cone_, stack_;
  std::vector<std::uint32_t> mark_;  ///< == epoch_ inside the current cone
  std::uint32_t epoch_ = 0;
  std::vector<int> value_, indegree_;
  int cone_top_ = 0;  ///< largest step solve_cone() derived

  // Cyclic strongly connected components of an infeasible incumbent.  An
  // op's labels are valid when its label_mark_ is label_epoch_ (it is on a
  // cyclic component); the others read kNone / None.
  bool cycles_labelled_ = false;
  std::uint32_t num_cycles_ = 0;
  std::vector<std::uint32_t> label_mark_;  ///< per op
  std::uint32_t label_epoch_ = 0;
  std::vector<std::uint32_t> cycle_of_;  ///< per op: component
  std::vector<std::uint32_t> cycle_root_;  ///< per component: a member
  /// Per op: kind of the witness-cycle arc entering it.
  std::vector<ArcKind> witness_in_;
  std::vector<CycleArc> witness_;  ///< the lone component's witness cycle
  // Tarjan scratch over the unresolved ops, indexed locally.
  struct Frame {
    std::uint32_t node = 0;
    std::uint32_t next = 0;  ///< next arc of node to follow
  };
  std::vector<std::uint32_t> local_;  ///< per op: local index
  std::vector<std::uint32_t> sub_begin_, sub_adj_;
  std::vector<std::uint32_t> order_, low_, tarjan_stack_;
  std::vector<std::uint8_t> on_stack_;
  std::vector<Frame> frames_;
  /// A cycle-finding walk: each op with the kind of the arc out of it the
  /// walk followed (swap_cycle walks backwards: into the entry before).
  std::vector<std::pair<std::uint32_t, ArcKind>> walk_;

  // The tentative swap.
  ArcKind pending_ = ArcKind::None;
  std::size_t pending_chain_ = 0, pending_pos_ = 0;
  bool pending_applied_ = false;  ///< false: rejected before the edit
  int pending_undefined_ = 0;  ///< undefined_ before the swap
  bool cone_solved_ = false;   ///< solve_cone() reached its Kahn pass

  // The base (save_base) and the edits made since.
  struct Swap {
    ArcKind kind = ArcKind::None;
    std::uint32_t chain = 0, pos = 0;
  };
  bool has_base_ = false;
  bool incumbent_is_base_ = false;  ///< no solve since save/restore_base
  std::vector<Swap> kept_;  ///< swaps kept since the base, in order
  ArcKind merged_ = ArcKind::None;  ///< kind of the merge, if any
  bool merge_linked_ = false;  ///< the merge's links are in place
  std::uint32_t merged_into_ = 0, merged_from_ = 0;
  std::uint32_t into_begin_ = 0, into_size_ = 0, from_size_ = 0;
  std::uint8_t into_contradicted_ = 0, from_contradicted_ = 0;
  std::size_t base_module_ops_ = 0, base_register_vars_ = 0;
  int base_undefined_ = 0, base_contradictions_ = 0, base_top_ = 0;
  std::vector<int> base_step_;
  std::vector<std::uint8_t> base_resolved_;
  std::vector<std::uint32_t> base_step_count_, base_unresolved_;
};

}  // namespace hlts::sched
