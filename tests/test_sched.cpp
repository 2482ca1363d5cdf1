// Unit tests for scheduling: ASAP/ALAP/mobility, lifetimes, the
// constraint graph, list scheduling, FDS and mobility-path scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "sched/constraint_graph.hpp"
#include "sched/fds.hpp"
#include "sched/lifetime.hpp"
#include "sched/list_sched.hpp"
#include "sched/mobility_path.hpp"
#include "sched/schedule.hpp"
#include "util/rng.hpp"

namespace hlts {
namespace {

using dfg::OpKind;

TEST(Schedule, AsapRespectsDepsAndIsMinimal) {
  dfg::Dfg g = benchmarks::make_diffeq();
  sched::Schedule s = sched::asap(g);
  EXPECT_TRUE(s.respects_data_deps(g));
  EXPECT_EQ(s.length(), g.critical_path_ops());
  // ASAP is componentwise minimal: every op with no preds sits in step 1.
  for (dfg::OpId op : g.op_ids()) {
    if (g.preds(op).empty()) {
      EXPECT_EQ(s.step(op), 1);
    }
  }
}

TEST(Schedule, AlapPushesLate) {
  dfg::Dfg g = benchmarks::make_diffeq();
  const int latency = g.critical_path_ops() + 2;
  sched::Schedule s = sched::alap(g, latency);
  EXPECT_TRUE(s.respects_data_deps(g));
  for (dfg::OpId op : g.op_ids()) {
    if (g.succs(op).empty()) {
      EXPECT_EQ(s.step(op), latency);
    }
  }
  EXPECT_THROW(sched::alap(g, g.critical_path_ops() - 1), Error);
}

TEST(Schedule, MobilityNonNegativeAndZeroOnCriticalPath) {
  dfg::Dfg g = benchmarks::make_ewf();
  const int latency = g.critical_path_ops();
  auto mob = sched::mobility(g, latency);
  bool any_zero = false;
  for (dfg::OpId op : g.op_ids()) {
    EXPECT_GE(mob[op], 0);
    if (mob[op] == 0) any_zero = true;
  }
  EXPECT_TRUE(any_zero);  // a critical path exists
}

TEST(Lifetime, BirthDeathAndDisjointness) {
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::asap(g);
  auto lt = sched::LifetimeTable::compute(g, s);
  // Primary inputs are born at step 0.
  dfg::VarId a = *g.find_var("a");
  EXPECT_EQ(lt.lifetime(a).birth, 0);
  EXPECT_GE(lt.lifetime(a).death, 1);
  // u = N21(a,b) at step 1, used at step 2.
  dfg::VarId u = *g.find_var("u");
  EXPECT_EQ(lt.lifetime(u).birth, 1);
  EXPECT_EQ(lt.lifetime(u).death, 2);
  // A variable is never disjoint from itself unless empty.
  EXPECT_FALSE(lt.disjoint(a, a));
  // max_live is at least the number of primary inputs (all live at step 1).
  EXPECT_GE(lt.max_live(), 6);
}

TEST(Lifetime, UnregisteredOutputsAreEmpty) {
  dfg::Dfg g = benchmarks::make_ex();  // s, t are port-direct
  sched::Schedule sch = sched::asap(g);
  auto lt = sched::LifetimeTable::compute(g, sch);
  EXPECT_TRUE(lt.lifetime(*g.find_var("s")).empty());
  // Port-direct variables conflict with nothing.
  EXPECT_TRUE(lt.disjoint(*g.find_var("s"), *g.find_var("t")));
}

TEST(ConstraintGraph, SolvesToAsapWithoutExtraArcs) {
  dfg::Dfg g = benchmarks::make_dct();
  sched::ConstraintGraph cg(g);
  auto s = cg.solve();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, sched::asap(g));
}

TEST(ConstraintGraph, SequencingArcDelaysOp) {
  dfg::Dfg g = benchmarks::make_ex();
  dfg::OpId n21 = *g.find_op("N21");
  dfg::OpId n22 = *g.find_op("N22");
  sched::ConstraintGraph cg(g);
  cg.add_arc(n21, n22, 1);  // share a module: N22 after N21
  auto s = cg.solve();
  ASSERT_TRUE(s.has_value());
  EXPECT_GT(s->step(n22), s->step(n21));
}

TEST(ConstraintGraph, CycleIsInfeasible) {
  dfg::Dfg g = benchmarks::make_ex();
  dfg::OpId n21 = *g.find_op("N21");
  dfg::OpId n22 = *g.find_op("N22");
  sched::ConstraintGraph cg(g);
  cg.add_arc(n21, n22, 1);
  cg.add_arc(n22, n21, 1);
  EXPECT_FALSE(cg.solve().has_value());
  EXPECT_FALSE(cg.schedule_length().has_value());
}

TEST(ConstraintGraph, ZeroWeightAllowsSameStep) {
  dfg::Dfg g = benchmarks::make_ex();
  dfg::OpId n21 = *g.find_op("N21");
  dfg::OpId n22 = *g.find_op("N22");
  sched::ConstraintGraph cg(g);
  cg.add_arc(n21, n22, 0);
  auto s = cg.solve();
  ASSERT_TRUE(s.has_value());
  EXPECT_GE(s->step(n22), s->step(n21));
}

/// Random chains over `g` that the ASAP schedule satisfies, ordered the
/// way the rescheduler seeds them: each op joins a random module chain
/// holding no op of its ASAP step, each register-resident variable a
/// random register chain
/// whose variables' ASAP lifetimes are disjoint from its own (a new chain
/// when none is), and chains are sorted by ASAP step.  Swaps then move
/// between feasible and infeasible orders.
struct RandomChains {
  std::vector<std::vector<dfg::OpId>> modules;
  std::vector<std::vector<dfg::VarId>> regs;
};

RandomChains random_chains(const dfg::Dfg& g, Rng& rng, std::size_t modules,
                           std::size_t regs) {
  const sched::Schedule asap = sched::asap(g);
  const sched::LifetimeTable lifetimes = sched::LifetimeTable::compute(g, asap);
  RandomChains c;
  c.modules.resize(modules);
  c.regs.resize(regs);
  auto place = [&](auto& chains, auto item, auto fits) {
    const std::size_t start = rng.next_below(chains.size());
    for (std::size_t k = 0; k < chains.size(); ++k) {
      auto& chain = chains[(start + k) % chains.size()];
      if (std::all_of(chain.begin(), chain.end(),
                      [&](auto other) { return fits(item, other); })) {
        chain.push_back(item);
        return;
      }
    }
    chains.push_back({item});
  };
  for (dfg::OpId op : g.op_ids()) {
    place(c.modules, op, [&](dfg::OpId a, dfg::OpId b) {
      return asap.step(a) != asap.step(b);
    });
  }
  for (dfg::VarId v : g.var_ids()) {
    if (!g.needs_register(v)) continue;
    // Strictly disjoint: a hand-over in one step (b written by a reader
    // of a) is a zero-weight self-loop, which the graph rejects.
    place(c.regs, v, [&](dfg::VarId a, dfg::VarId b) {
      const sched::Lifetime la = lifetimes.lifetime(a);
      const sched::Lifetime lb = lifetimes.lifetime(b);
      return la.death < lb.birth || lb.death < la.birth;
    });
  }
  for (auto& chain : c.modules) {
    std::stable_sort(chain.begin(), chain.end(), [&](dfg::OpId a, dfg::OpId b) {
      return asap.step(a) < asap.step(b);
    });
  }
  auto key = [&](dfg::VarId v) {
    return g.var(v).def.valid() ? asap.step(g.var(v).def) : -1;
  };
  for (auto& chain : c.regs) {
    std::stable_sort(chain.begin(), chain.end(),
                     [&](dfg::VarId a, dfg::VarId b) { return key(a) < key(b); });
  }
  return c;
}

/// A fresh graph of `g` with the given chains, solved from scratch.
std::optional<sched::Schedule> fresh_solve(const dfg::Dfg& g,
                                           const RandomChains& c) {
  sched::ConstraintGraph fresh(g);
  for (const auto& chain : c.modules) (void)fresh.add_module_chain(chain);
  for (const auto& chain : c.regs) (void)fresh.add_register_chain(chain);
  return fresh.solve();
}

TEST(ConstraintGraph, ChainSwapsMatchFreshSolves) {
  // Random chain swaps, kept or reverted at random (infeasible ones
  // included), on one reused graph: every tentative length and every kept
  // schedule must equal a from-scratch solve of the same orders.
  sched::ConstraintGraph graph;
  int feasible = 0;
  int infeasible = 0;
  for (const char* name : {"ewf", "diffeq", "tseng"}) {
    const dfg::Dfg g = benchmarks::make_benchmark(name);
    Rng rng(std::hash<std::string>{}(name));
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(std::string(name) + " round " + std::to_string(round));
      RandomChains c = random_chains(g, rng, 2 + round, 3 + round);
      graph.reset(g);
      for (const auto& chain : c.modules) (void)graph.add_module_chain(chain);
      for (const auto& chain : c.regs) (void)graph.add_register_chain(chain);
      std::optional<int> len = graph.schedule_length();
      for (int swap = 0; swap < 60; ++swap) {
        const bool module = rng.next_bool();
        const std::size_t k =
            rng.next_below(module ? c.modules.size() : c.regs.size());
        const std::size_t size =
            module ? c.modules[k].size() : c.regs[k].size();
        if (size < 2) continue;
        const std::size_t i = rng.next_below(size - 1);
        const std::optional<int> tried = module
                                             ? graph.try_swap_module(k, i)
                                             : graph.try_swap_register(k, i);
        if (module) {
          std::swap(c.modules[k][i], c.modules[k][i + 1]);
        } else {
          std::swap(c.regs[k][i], c.regs[k][i + 1]);
        }
        const std::optional<sched::Schedule> expected = fresh_solve(g, c);
        ASSERT_EQ(tried, expected ? std::optional<int>(expected->length())
                                  : std::nullopt);
        (expected ? feasible : infeasible)++;
        // Mostly keep feasible swaps, sometimes an infeasible one.
        if (expected ? rng.next_bool() : rng.next_below(8) == 0) {
          graph.keep();
          len = tried;
          ASSERT_EQ(graph.schedule(), expected);
        } else {
          graph.revert();
          if (module) {
            std::swap(c.modules[k][i], c.modules[k][i + 1]);
          } else {
            std::swap(c.regs[k][i], c.regs[k][i + 1]);
          }
        }
      }
      EXPECT_EQ(graph.schedule().has_value(), len.has_value());
    }
  }
  EXPECT_GT(feasible, 50);
  EXPECT_GT(infeasible, 50);
}

/// Merges two random chains of one kind, in `c` and in `graph` (whose base
/// holds c's chains), each sorted the way a merger's trial sorts it.
void merge_random_chains(const dfg::Dfg& g, const sched::Schedule& asap,
                         Rng& rng, RandomChains& c,
                         sched::ConstraintGraph& graph) {
  auto var_key = [&](dfg::VarId v) {
    return g.var(v).def.valid() ? asap.step(g.var(v).def) : -1;
  };
  const bool module = rng.next_bool();
  const std::size_t n = module ? c.modules.size() : c.regs.size();
  const std::size_t into = rng.next_below(n);
  const std::size_t from = (into + 1 + rng.next_below(n - 1)) % n;
  if (module) {
    auto& a = c.modules[into];
    a.insert(a.end(), c.modules[from].begin(), c.modules[from].end());
    std::stable_sort(a.begin(), a.end(), [&](dfg::OpId x, dfg::OpId y) {
      return asap.step(x) < asap.step(y);
    });
    c.modules[from].clear();
    const std::span<dfg::OpId> merged = graph.merge_module_chains(into, from);
    std::stable_sort(merged.begin(), merged.end(),
                     [&](dfg::OpId x, dfg::OpId y) {
                       return asap.step(x) < asap.step(y);
                     });
    ASSERT_TRUE(std::equal(merged.begin(), merged.end(), a.begin(), a.end()));
  } else {
    auto& a = c.regs[into];
    a.insert(a.end(), c.regs[from].begin(), c.regs[from].end());
    std::stable_sort(a.begin(), a.end(), [&](dfg::VarId x, dfg::VarId y) {
      return var_key(x) < var_key(y);
    });
    c.regs[from].clear();
    const std::span<dfg::VarId> merged =
        graph.merge_register_chains(into, from);
    std::stable_sort(merged.begin(), merged.end(),
                     [&](dfg::VarId x, dfg::VarId y) {
                       return var_key(x) < var_key(y);
                     });
    ASSERT_TRUE(std::equal(merged.begin(), merged.end(), a.begin(), a.end()));
  }
}

TEST(ConstraintGraph, BaseMergesMatchFreshSolves) {
  // A base of random chains over shared tables.  Each trial merges two
  // chains of one kind (re-sorted the way a merger's trial sorts them),
  // solves the edit, tries random swaps, keeping some, and restores the
  // base: every length and schedule equals a fresh solve of the same
  // chains, and the restored chains and incumbent equal the base's.
  int feasible = 0;
  int infeasible = 0;
  for (const char* name : {"ewf", "diffeq", "tseng"}) {
    const dfg::Dfg g = benchmarks::make_benchmark(name);
    const sched::Schedule asap = sched::asap(g);
    const sched::ConstraintTables tables(g);
    Rng rng(std::hash<std::string>{}(name) + 1);
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE(std::string(name) + " round " + std::to_string(round));
      const RandomChains base = random_chains(g, rng, 3 + round, 4 + round);
      sched::ConstraintGraph graph;
      graph.reset(tables);
      for (const auto& chain : base.modules) {
        (void)graph.add_module_chain(chain);
      }
      for (const auto& chain : base.regs) {
        (void)graph.add_register_chain(chain);
      }
      ASSERT_TRUE(graph.schedule_length().has_value());
      const std::optional<sched::Schedule> base_schedule = graph.schedule();
      graph.save_base();
      for (int trial = 0; trial < 16; ++trial) {
        RandomChains c = base;
        merge_random_chains(g, asap, rng, c, graph);
        const std::optional<int> len = graph.solve_merge();
        std::optional<sched::Schedule> expected = fresh_solve(g, c);
        ASSERT_EQ(len, expected ? std::optional<int>(expected->length())
                                : std::nullopt);
        ASSERT_EQ(graph.schedule(), expected);
        (expected ? feasible : infeasible)++;
        for (int swap = 0; swap < 6; ++swap) {
          const bool on_module = rng.next_bool();
          const std::size_t k =
              rng.next_below(on_module ? c.modules.size() : c.regs.size());
          const std::size_t size =
              on_module ? c.modules[k].size() : c.regs[k].size();
          if (size < 2) continue;
          const std::size_t i = rng.next_below(size - 1);
          const std::optional<int> tried =
              on_module ? graph.try_swap_module(k, i)
                        : graph.try_swap_register(k, i);
          if (on_module) {
            std::swap(c.modules[k][i], c.modules[k][i + 1]);
          } else {
            std::swap(c.regs[k][i], c.regs[k][i + 1]);
          }
          expected = fresh_solve(g, c);
          ASSERT_EQ(tried, expected ? std::optional<int>(expected->length())
                                    : std::nullopt);
          if (rng.next_bool()) {
            graph.keep();
            ASSERT_EQ(graph.schedule(), expected);
          } else {
            graph.revert();
            if (on_module) {
              std::swap(c.modules[k][i], c.modules[k][i + 1]);
            } else {
              std::swap(c.regs[k][i], c.regs[k][i + 1]);
            }
          }
        }
        graph.restore_base();
        ASSERT_EQ(graph.schedule(), base_schedule);
        for (std::size_t k = 0; k < base.modules.size(); ++k) {
          const std::span<const dfg::OpId> chain = graph.module_chain(k);
          ASSERT_TRUE(std::equal(chain.begin(), chain.end(),
                                 base.modules[k].begin(),
                                 base.modules[k].end()));
        }
        for (std::size_t k = 0; k < base.regs.size(); ++k) {
          const std::span<const dfg::VarId> chain = graph.register_chain(k);
          ASSERT_TRUE(std::equal(chain.begin(), chain.end(),
                                 base.regs[k].begin(), base.regs[k].end()));
        }
      }
    }
  }
  EXPECT_GT(feasible, 20);
  EXPECT_GT(infeasible, 20);
}

using ArcKind = sched::ConstraintGraph::ArcKind;
using CycleArc = sched::ConstraintGraph::CycleArc;
using Arc = std::tuple<std::uint32_t, ArcKind, std::uint32_t>;

/// Every arc of the graph of `g` with chains `c`, as (from, kind, to): data
/// dependences, module-chain neighbours, and register-chain neighbours x, y
/// as arcs from x's readers (its definition when it has none) to y's
/// definition.
std::set<Arc> chain_arcs(const dfg::Dfg& g, const RandomChains& c) {
  std::set<Arc> arcs;
  for (dfg::OpId op : g.op_ids()) {
    for (dfg::VarId in : g.op(op).inputs) {
      if (g.var(in).def.valid()) {
        arcs.insert({g.var(in).def.value(), ArcKind::Fixed, op.value()});
      }
    }
  }
  for (const auto& chain : c.modules) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      arcs.insert({chain[i].value(), ArcKind::Module, chain[i + 1].value()});
    }
  }
  for (const auto& chain : c.regs) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const dfg::Variable& x = g.var(chain[i]);
      const dfg::OpId def = g.var(chain[i + 1]).def;
      if (!def.valid()) continue;
      for (dfg::OpId r : x.uses) {
        arcs.insert({r.value(), ArcKind::Register, def.value()});
      }
      if (x.uses.empty() && x.def.valid()) {
        arcs.insert({x.def.value(), ArcKind::Register, def.value()});
      }
    }
  }
  return arcs;
}

/// Whether every arc of `cycle` is in `arcs` (false when it is empty).
bool arcs_hold(std::span<const CycleArc> cycle, const std::set<Arc>& arcs) {
  for (std::size_t k = 0; k < cycle.size(); ++k) {
    const std::uint32_t next = cycle[(k + 1) % cycle.size()].op;
    if (arcs.count({cycle[k].op, cycle[k].kind, next}) == 0) return false;
  }
  return !cycle.empty();
}

/// Whether `cycle` is simple (no op twice) and every arc of it is in `arcs`.
bool simple_cycle_of(std::span<const CycleArc> cycle,
                     const std::set<Arc>& arcs) {
  std::set<std::uint32_t> ops;
  for (const CycleArc& a : cycle) {
    if (!ops.insert(a.op).second) return false;
  }
  return arcs_hold(cycle, arcs);
}

/// `c` with the chain link from `tail` to `head` (an arc of `kind`)
/// reversed: the two chain members swapped.
RandomChains swap_link(const dfg::Dfg& g, RandomChains c, ArcKind kind,
                       std::uint32_t tail, std::uint32_t head) {
  if (kind == ArcKind::Module) {
    for (auto& chain : c.modules) {
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        if (chain[i].value() == tail && chain[i + 1].value() == head) {
          std::swap(chain[i], chain[i + 1]);
          return c;
        }
      }
    }
  } else {
    const dfg::VarId y = g.op(dfg::OpId{head}).output;
    for (auto& chain : c.regs) {
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        if (chain[i + 1] == y) {
          std::swap(chain[i], chain[i + 1]);
          return c;
        }
      }
    }
  }
  ADD_FAILURE() << "no chain link from " << tail << " to " << head;
  return c;
}

TEST(ConstraintGraph, CyclesAndCycleChecksMatchArcLists) {
  // Base merges as above, half of them only linked (link_merge) before
  // they are solved.  Every cycle the graph reads off -- each cyclic
  // component's and a rejected swap's -- is a simple cycle of
  // the arcs the chains imply, and has_cycle / has_cycle_after_swap agree
  // with those arc lists, kinds included.
  int component_cycles = 0;
  int swap_cycles = 0;
  int swapped_checks = 0;
  int absent = 0;
  for (const char* name : {"ewf", "diffeq", "tseng"}) {
    const dfg::Dfg g = benchmarks::make_benchmark(name);
    const sched::Schedule asap = sched::asap(g);
    const sched::ConstraintTables tables(g);
    Rng rng(std::hash<std::string>{}(name) + 2);
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE(std::string(name) + " round " + std::to_string(round));
      const RandomChains base = random_chains(g, rng, 3 + round, 4 + round);
      sched::ConstraintGraph graph;
      graph.reset(tables);
      for (const auto& chain : base.modules) {
        (void)graph.add_module_chain(chain);
      }
      for (const auto& chain : base.regs) {
        (void)graph.add_register_chain(chain);
      }
      ASSERT_TRUE(graph.schedule_length().has_value());
      const std::optional<sched::Schedule> base_schedule = graph.schedule();
      graph.save_base();
      for (int trial = 0; trial < 16; ++trial) {
        RandomChains c = base;
        merge_random_chains(g, asap, rng, c, graph);
        const std::set<Arc> arcs = chain_arcs(g, c);
        if (rng.next_bool()) graph.link_merge();
        const std::optional<int> len = graph.solve_merge();
        const std::optional<sched::Schedule> expected = fresh_solve(g, c);
        ASSERT_EQ(len, expected ? std::optional<int>(expected->length())
                                : std::nullopt);
        if (len || graph.cyclic_components() == 0) {
          graph.restore_base();
          continue;
        }
        std::vector<std::vector<CycleArc>> found(graph.cyclic_components());
        for (std::uint32_t k = 0; k < found.size(); ++k) {
          graph.component_cycle(k, found[k]);
          ASSERT_TRUE(simple_cycle_of(found[k], arcs));
          ASSERT_TRUE(graph.has_cycle(found[k]));
          ++component_cycles;
        }
        // One arc's kind changed: present exactly when the arc lists say.
        for (const auto& cycle : found) {
          for (std::size_t k = 0; k < cycle.size(); ++k) {
            for (ArcKind kind :
                 {ArcKind::Fixed, ArcKind::Module, ArcKind::Register}) {
              std::vector<CycleArc> changed = cycle;
              changed[k].kind = kind;
              const bool holds = arcs_hold(changed, arcs);
              ASSERT_EQ(graph.has_cycle(changed), holds);
              if (!holds) ++absent;
            }
          }
        }
        // The found cycles with one chain link of the first swapped.
        const std::vector<CycleArc>& c0 = found[0];
        for (std::size_t j = 0; j < c0.size(); ++j) {
          if (c0[j].kind == ArcKind::Fixed) continue;
          const std::set<Arc> swapped_arcs = chain_arcs(
              g, swap_link(g, c, c0[j].kind, c0[j].op,
                           c0[(j + 1) % c0.size()].op));
          for (const auto& cycle : found) {
            ASSERT_EQ(graph.has_cycle_after_swap(c0, j, cycle),
                      arcs_hold(cycle, swapped_arcs));
            ++swapped_checks;
          }
          ASSERT_TRUE(graph.has_cycle(c0));  // the swap was undone
        }
        // Every swap the graph applies and finds cyclic names a cycle of
        // the swapped chains.
        for (std::size_t k = 0; k < c.modules.size(); ++k) {
          for (std::size_t i = 0; i + 1 < c.modules[k].size(); ++i) {
            const std::optional<int> tried = graph.try_swap_module(k, i);
            std::vector<CycleArc> cycle;
            if (graph.swap_cycle(cycle)) {
              ASSERT_FALSE(tried.has_value());
              RandomChains swapped = c;
              std::swap(swapped.modules[k][i], swapped.modules[k][i + 1]);
              ASSERT_TRUE(simple_cycle_of(cycle, chain_arcs(g, swapped)));
              ++swap_cycles;
            }
            graph.revert();
          }
        }
        for (std::size_t k = 0; k < c.regs.size(); ++k) {
          for (std::size_t i = 0; i + 1 < c.regs[k].size(); ++i) {
            const std::optional<int> tried = graph.try_swap_register(k, i);
            std::vector<CycleArc> cycle;
            if (graph.swap_cycle(cycle)) {
              ASSERT_FALSE(tried.has_value());
              RandomChains swapped = c;
              std::swap(swapped.regs[k][i], swapped.regs[k][i + 1]);
              ASSERT_TRUE(simple_cycle_of(cycle, chain_arcs(g, swapped)));
              ++swap_cycles;
            }
            graph.revert();
          }
        }
        graph.restore_base();
        ASSERT_EQ(graph.schedule(), base_schedule);
      }
    }
  }
  EXPECT_GT(component_cycles, 10);
  EXPECT_GT(swap_cycles, 5);
  EXPECT_GT(swapped_checks, 20);
  EXPECT_GT(absent, 20);
}

TEST(ListSched, ResourceLimitLengthensSchedule) {
  dfg::Dfg g = benchmarks::make_ex();  // 4 multiplications
  sched::Schedule unlimited = sched::list_schedule(g);
  EXPECT_EQ(unlimited.length(), g.critical_path_ops());

  sched::ListSchedOptions options;
  options.class_limits[sched::module_class_of(OpKind::Mul)] = 1;
  sched::Schedule limited = sched::list_schedule(g, options);
  EXPECT_TRUE(limited.respects_data_deps(g));
  EXPECT_GE(limited.length(), 4);  // 4 mults serialized on one multiplier
  // At most one multiplication per step.
  for (int step = 1; step <= limited.length(); ++step) {
    int mults = 0;
    for (dfg::OpId op : limited.ops_in_step(g, step)) {
      if (g.op(op).kind == OpKind::Mul) ++mults;
    }
    EXPECT_LE(mults, 1);
  }
}

class LatencySchedulers : public ::testing::TestWithParam<std::string> {};

TEST_P(LatencySchedulers, FdsValidAndBalanced) {
  dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  const int latency = g.critical_path_ops() + 1;
  sched::Schedule s = sched::force_directed_schedule(g, {.latency = latency});
  EXPECT_TRUE(s.respects_data_deps(g));
  EXPECT_LE(s.length(), latency);
}

TEST_P(LatencySchedulers, MobilityPathValid) {
  dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  const int latency = g.critical_path_ops() + 1;
  sched::Schedule s = sched::mobility_path_schedule(g, {.latency = latency});
  EXPECT_TRUE(s.respects_data_deps(g));
  EXPECT_LE(s.length(), latency);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, LatencySchedulers,
                         ::testing::ValuesIn(benchmarks::benchmark_names()),
                         [](const auto& info) { return info.param; });

TEST(Fds, BalancesMultiplierConcurrency) {
  // Ex has 4 multiplications and a critical path of 3; with latency 4, FDS
  // must not pile all four into one step.
  dfg::Dfg g = benchmarks::make_ex();
  sched::Schedule s = sched::force_directed_schedule(g, {.latency = 4});
  int max_mults = 0;
  for (int step = 1; step <= s.length(); ++step) {
    int mults = 0;
    for (dfg::OpId op : s.ops_in_step(g, step)) {
      if (g.op(op).kind == OpKind::Mul) ++mults;
    }
    max_mults = std::max(max_mults, mults);
  }
  EXPECT_LE(max_mults, 2);
}

}  // namespace
}  // namespace hlts
