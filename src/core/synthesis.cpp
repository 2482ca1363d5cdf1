#include "core/synthesis.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "analysis/incremental.hpp"
#include "core/checkpoint.hpp"
#include "core/validate.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace hlts::core {

namespace {

/// Sorted, deduplicated source/destination node ids of a data-path node
/// (ignoring ports' step labels).  Sorted vectors instead of std::set: the
/// closeness score runs O(modules^2 + regs^2) times per iteration, and a
/// linear merge over two small sorted vectors beats four heap-allocated
/// sets per pair.
struct NeighbourLists {
  std::vector<std::uint32_t> sources, dests;
};

NeighbourLists neighbour_lists(const etpn::DataPath& dp, etpn::DpNodeId n) {
  NeighbourLists out;
  out.sources.reserve(dp.in_degree(n));
  out.dests.reserve(dp.out_degree(n));
  for (etpn::DpArcId a : dp.in_arcs(n)) {
    out.sources.push_back(dp.arc(a).from.value());
  }
  for (etpn::DpArcId a : dp.out_arcs(n)) {
    out.dests.push_back(dp.arc(a).to.value());
  }
  for (auto* v : {&out.sources, &out.dests}) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  }
  return out;
}

int shared_count(const std::vector<std::uint32_t>& a,
                 const std::vector<std::uint32_t>& b) {
  int n = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++n;
      ++ia;
      ++ib;
    }
  }
  return n;
}

bool sorted_contains(const std::vector<std::uint32_t>& v, std::uint32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

int closeness(const NeighbourLists& n1, etpn::DpNodeId id1,
              const NeighbourLists& n2, etpn::DpNodeId id2) {
  // Shared sources/destinations save multiplexer inputs and wires; a
  // direct connection between the two nodes is "closeness" as well.
  int score = shared_count(n1.sources, n2.sources) +
              shared_count(n1.dests, n2.dests);
  if (sorted_contains(n1.dests, id2.value()) ||
      sorted_contains(n2.dests, id1.value())) {
    ++score;
  }
  return score;
}

/// Canonical cache key of one candidate pair: kind plus the two binding
/// group ids in ascending order.  Group ids are stable across mergers
/// (merged-away groups become tombstones), so a key keeps naming the same
/// two groups until one of them is committed into a merger -- which is
/// exactly when the entry is invalidated.
struct TrialKey {
  testability::MergeCandidate::Kind kind =
      testability::MergeCandidate::Kind::Modules;
  std::uint32_t a = 0, b = 0;

  friend bool operator==(const TrialKey&, const TrialKey&) = default;
};

TrialKey make_key(const testability::MergeCandidate& c) {
  TrialKey key;
  key.kind = c.kind;
  std::tie(key.a, key.b) = c.group_ids();
  if (key.a > key.b) std::swap(key.a, key.b);
  return key;
}

struct TrialKeyHash {
  std::size_t operator()(const TrialKey& k) const noexcept {
    std::uint64_t h = (std::uint64_t{k.a} << 33) ^ (std::uint64_t{k.b} << 1) ^
                      static_cast<std::uint64_t>(k.kind);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

/// Cached outcome of one trial: feasibility and the dE/dH measured against
/// the baseline that was current when the trial ran.  dE/dH of a merger are
/// (to first order) properties of the pair itself, so they stay accurate
/// for pairs the committed merger did not touch.
struct CachedTrial {
  bool feasible = false;
  double delta_e = 0;
  double delta_h = 0;
};

using TrialCache = std::unordered_map<TrialKey, CachedTrial, TrialKeyHash>;

/// One evaluated trial: merged design -> reschedule -> hardware cost of the
/// merged data path.  The winner's merger is re-applied at commit time.
struct TrialEval {
  bool feasible = false;
  sched::Schedule schedule;
  int exec_time = 0;
  cost::HardwareCost cost;  ///< committed as is when the trial wins
};

/// One trial: a DesignDelta patches a checked-out workspace in place (merge
/// patch, no rebuild), the rescheduler reuses the patched graph for its
/// register distances and edits the workspace's base constraint graph --
/// the committed design's chains, built at the workspace's first trial of
/// the iteration -- for its order search, and the cost estimate runs over
/// the tombstoned data path.  The numbers are bit-identical to a binding
/// copy -> reschedule -> build_etpn -> estimate_cost pipeline, which the
/// tests keep as the reference (tests/support/reference_synthesis.hpp).
TrialEval evaluate_trial(const dfg::Dfg& g, const SynthesisParams& p,
                         analysis::IncrementalContext& ctx,
                         const sched::Schedule& hint,
                         const testability::MergeCandidate& cand,
                         int max_latency) {
  TrialEval t;
  std::unique_ptr<analysis::TrialWorkspace> ws = ctx.checkout();
  if (ws->resched_epoch != ctx.epoch()) {
    build_trial_base(g, ctx.tables(), ws->binding, hint, ws->resched);
    ws->resched_epoch = ctx.epoch();
  }
  {
    analysis::DesignDelta delta(g, *ws, cand);
    ReschedOutcome r = reschedule_merger(g, ws->binding, hint, p.order,
                                         &ws->etpn, cand, ws->resched);
    if (r.feasible && r.schedule.length() <= max_latency) {
      t.feasible = true;
      t.schedule = std::move(r.schedule);
      t.exec_time = t.schedule.length();
      t.cost =
          cost::estimate_cost(ws->etpn.data_path, p.library, p.bits, ws->cost);
    }
  }
  ctx.checkin(std::move(ws));
  return t;
}

/// Per-candidate knowledge within one iteration.
struct Outcome {
  enum class State { Unknown, Cached, Fresh } state = State::Unknown;
  bool feasible = false;
  double delta_e = 0, delta_h = 0, delta_c = 0;
  TrialEval eval;  ///< populated when state == Fresh and feasible
};

/// Approximate heap bytes held by one evaluated trial, used to honour
/// AlgorithmOptions::memory_budget_bytes without instrumenting the
/// allocator.  Deliberately generous (vector headers included) so the
/// budget errs on stopping early rather than OOMing.
///
/// Trials patch a shared workspace in place: the per-trial footprint is one
/// merge patch over the two merged nodes' neighbourhoods (bounded by the
/// average node degree) plus the schedule.
std::size_t approx_trial_bytes(const dfg::Dfg& g) {
  const std::size_t schedule_bytes = g.num_ops() * sizeof(int) + 64;
  // ~3 arcs per op (two operand fetches + result store) spread over
  // ~(ops + vars) nodes; a patch snapshots both endpoints' incident arcs
  // and adjacency lists at ~96 bytes per saved arc.
  const std::size_t arcs = 3 * g.num_ops() + g.num_vars();
  const std::size_t degree =
      arcs / std::max<std::size_t>(1, g.num_ops() + g.num_vars()) + 2;
  return schedule_bytes + 2 * degree * 96 + 256;
}

}  // namespace

std::vector<testability::MergeCandidate> select_connectivity_candidates(
    const dfg::Dfg& g, const etpn::Binding& b, const etpn::Etpn& e, int k) {
  std::vector<testability::MergeCandidate> candidates;
  const etpn::DataPath& dp = e.data_path;

  std::vector<etpn::ModuleId> modules = b.alive_modules();
  std::vector<NeighbourLists> mod_nb(modules.size());
  for (std::size_t i = 0; i < modules.size(); ++i) {
    mod_nb[i] = neighbour_lists(dp, e.module_node[modules[i]]);
  }
  for (std::size_t i = 0; i < modules.size(); ++i) {
    for (std::size_t j = i + 1; j < modules.size(); ++j) {
      if (!b.can_merge_modules(g, modules[i], modules[j])) continue;
      testability::MergeCandidate c;
      c.kind = testability::MergeCandidate::Kind::Modules;
      c.module_a = modules[i];
      c.module_b = modules[j];
      c.score = closeness(mod_nb[i], e.module_node[modules[i]], mod_nb[j],
                          e.module_node[modules[j]]);
      candidates.push_back(c);
    }
  }
  std::vector<etpn::RegId> regs = b.alive_regs();
  std::vector<NeighbourLists> reg_nb(regs.size());
  for (std::size_t i = 0; i < regs.size(); ++i) {
    reg_nb[i] = neighbour_lists(dp, e.reg_node[regs[i]]);
  }
  const testability::RegMergeOracle oracle(g, b);
  for (std::size_t i = 0; i < regs.size(); ++i) {
    for (std::size_t j = i + 1; j < regs.size(); ++j) {
      if (!b.can_merge_regs(regs[i], regs[j])) continue;
      if (oracle.impossible(regs[i], regs[j])) continue;
      testability::MergeCandidate c;
      c.kind = testability::MergeCandidate::Kind::Registers;
      c.reg_a = regs[i];
      c.reg_b = regs[j];
      c.score = closeness(reg_nb[i], e.reg_node[regs[i]], reg_nb[j],
                          e.reg_node[regs[j]]);
      candidates.push_back(c);
    }
  }
  // A closeness-driven allocator only considers pairs that actually share
  // interconnect; merging unrelated nodes brings it no wiring benefit.
  std::erase_if(candidates,
                [](const testability::MergeCandidate& c) { return c.score <= 0; });
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const auto& a, const auto& c) { return a.score > c.score; });
  if (static_cast<int>(candidates.size()) > k) candidates.resize(k);
  return candidates;
}

SynthesisResult integrated_synthesis(const dfg::Dfg& g,
                                     const SynthesisParams& p) {
  HLTS_REQUIRE_INPUT(p.k >= 1, "synthesis: k must be >= 1");
  HLTS_REQUIRE_INPUT(p.num_threads >= 0, "synthesis: num_threads must be >= 0");
  HLTS_REQUIRE_INPUT(p.max_iterations >= 0,
                     "synthesis: max_iterations must be >= 0");
  HLTS_REQUIRE_INPUT(p.checkpoint_every >= 0,
                     "synthesis: checkpoint_every must be >= 0");
  g.validate();

  // Crash recovery: a checkpoint is the loop's complete state (see
  // core/checkpoint.hpp), so resuming means seeding schedule + binding from
  // it and starting the iteration counter where it left off.  trial_cache
  // must be off -- its cross-iteration memory is not part of a checkpoint,
  // and resuming without it could rank a near-tie differently.
  const Checkpoint* resume = p.resume_from;
  if (resume != nullptr) {
    HLTS_REQUIRE_INPUT(!p.trial_cache,
                       "synthesis: resume_from requires trial_cache off");
    HLTS_REQUIRE_INPUT(resume->iteration >= 0 &&
                           resume->iteration <= p.max_iterations,
                       "synthesis: resume iteration out of range");
    HLTS_REQUIRE_INPUT(resume->schedule.num_ops() == g.num_ops(),
                       "synthesis: resume schedule does not match the graph");
    HLTS_REQUIRE_INPUT(resume->binding.module_compat() == p.compat,
                       "synthesis: resume binding compat mismatch");
    HLTS_REQUIRE_INPUT(resume->schedule.respects_data_deps(g),
                       "synthesis: resume schedule violates data dependences");
    HLTS_REQUIRE_INPUT(
        schedule_respects_binding(g, resume->binding, resume->schedule),
        "synthesis: resume schedule conflicts with resume binding");
  }
  const int start_iteration = resume != nullptr ? resume->iteration : 0;

  SynthesisResult result;
  result.schedule = resume != nullptr ? resume->schedule : sched::asap(g);
  result.binding = resume != nullptr
                       ? resume->binding
                       : etpn::Binding::default_binding(g, p.compat);
  const int max_latency =
      p.max_latency > 0 ? p.max_latency : g.critical_path_ops() + 1;

  // The committed design's analysis state (ETPN, testability fixpoint and
  // cost, derived at attach and at each commit) and the trial workspace
  // pool.
  analysis::IncrementalContext ctx(g, p.library, p.bits);
  ctx.attach(result.schedule, result.binding);
  result.exec_time = result.schedule.length();
  result.cost = ctx.cost();

  // One pool for the whole run, reused across iterations.  Everything that
  // follows is bit-identical for any thread count: trials are evaluated
  // independently, wave boundaries depend only on the (deterministic)
  // ranking and cache state, and the reduction walks candidates in rank
  // order with the same comparison the serial loop uses.
  const std::size_t threads = p.num_threads > 0
                                  ? static_cast<std::size_t>(p.num_threads)
                                  : util::ThreadPool::default_threads();
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  TrialCache cache;
  // Trial evaluation fans out to pool workers, which do not inherit the
  // caller's thread-local trace; counters go through this captured pointer
  // (Trace is thread-safe) so worker-side work is still accounted.
  util::Trace* trace = util::Trace::current();

  if (p.audit) {
    enforce_audit(audit_design(g, result.schedule, result.binding),
                  "initial schedule/allocation");
    enforce_audit(audit_etpn(g, ctx.etpn(), result.binding), "initial ETPN");
  }

  // Anytime bookkeeping.  `result` only ever holds a fully committed,
  // consistent design: each iteration stages its entire new state in locals
  // and commits by move, so a fault anywhere in an iteration leaves the
  // previous checkpoint intact.  The flags record which exit the loop took.
  bool cancelled = false;
  bool converged = false;
  bool memory_stop = false;
  std::string degraded;  // transient fault absorbed at an iteration boundary

  for (int iter = start_iteration; iter < p.max_iterations; ++iter) {
    // Cooperative cancellation, checked once per iteration: together with
    // the on_iteration hook below this bounds a caller's cancel latency to
    // one Algorithm-1 iteration.
    if (p.cancel && p.cancel->load(std::memory_order_relaxed)) {
      util::count("synth.cancelled");
      cancelled = true;
      break;
    }
    try {
    HLTS_SPAN("synth.iteration");
    // Steps 4-6: testability analysis, then candidate pairs ranked by the
    // policy.  "Select k pairs of mergable nodes": we walk the ranking in
    // order and keep the first k pairs that survive trial rescheduling, so
    // a small k concentrates the choice on the testability-best mergers
    // (the paper: "a small value of k means that more emphasis is placed on
    // improving the testability measure").
    std::vector<testability::MergeCandidate> ranking;
    {
      HLTS_SPAN("synth.candidates");
      // The candidate cap exceeds the pair count, so it never truncates
      // the ranking.
      const etpn::Etpn& ce = ctx.etpn();
      const int all = static_cast<int>(ce.data_path.num_alive_nodes() *
                                       ce.data_path.num_alive_nodes());
      ranking = p.policy == SelectionPolicy::BalanceTestability
                    ? testability::select_balance_candidates(
                          g, result.binding, ce, ctx.analysis(), all,
                          p.balance)
                    : select_connectivity_candidates(g, result.binding, ce,
                                                     all);
    }
    if (ranking.empty()) {
      converged = true;
      break;
    }

    // Memory budget: the coming wave may hold one evaluated trial (merge
    // patch + schedule) per ranked candidate.  Stopping here -- before
    // anything is allocated or mutated -- keeps the current checkpoint
    // exact, so the degraded run equals a run capped at this iteration.
    if (p.memory_budget_bytes != 0 &&
        ranking.size() * approx_trial_bytes(g) > p.memory_budget_bytes) {
      util::count("synth.memory_budget_stops");
      memory_stop = true;
      break;
    }

    const double base_exec = static_cast<double>(result.exec_time);
    const double base_hw = result.cost.total();

    std::vector<Outcome> outcomes(ranking.size());
    if (p.trial_cache) {
      for (std::size_t i = 0; i < ranking.size(); ++i) {
        auto it = cache.find(make_key(ranking[i]));
        if (it == cache.end()) continue;
        if (trace) trace->add_counter("synth.cache_hits");
        Outcome& o = outcomes[i];
        o.state = Outcome::State::Cached;
        o.feasible = it->second.feasible;
        o.delta_e = it->second.delta_e;
        o.delta_h = it->second.delta_h;
        o.delta_c = p.alpha * o.delta_e + p.beta * o.delta_h;
      }
    }

    // Evaluates ranking[i] for real and records it in outcomes + cache.
    auto evaluate_at = [&](std::size_t i) {
      if (trace) trace->add_counter("synth.trials_evaluated");
      Outcome& o = outcomes[i];
      o.eval = evaluate_trial(g, p, ctx, result.schedule, ranking[i],
                              max_latency);
      o.state = Outcome::State::Fresh;
      o.feasible = o.eval.feasible;
      if (o.feasible) {
        o.delta_e = static_cast<double>(o.eval.exec_time) - base_exec;
        o.delta_h = (o.eval.cost.total() - base_hw) / kAreaUnit;
        o.delta_c = p.alpha * o.delta_e + p.beta * o.delta_h;
      }
    };
    auto remember = [&](std::size_t i) {
      if (!p.trial_cache) return;
      const Outcome& o = outcomes[i];
      cache[make_key(ranking[i])] =
          CachedTrial{o.feasible, o.delta_e, o.delta_h};
    };

    // Steps 7-11: resolve the first k feasible candidates in rank order,
    // fanning unresolved trials out across the pool, then pick the smallest
    // dC.  Cached outcomes only rank; a cached winner is re-evaluated fresh
    // before commitment (and the selection re-run on its exact numbers), so
    // the committed schedule/binding always reflects the current state.
    std::optional<std::size_t> winner;
    const std::uint64_t trials_start = trace ? trace->now_us() : 0;
    for (;;) {
      std::vector<std::size_t> chosen;
      std::vector<std::size_t> wave;
      for (std::size_t i = 0;
           i < ranking.size() && chosen.size() < static_cast<std::size_t>(p.k);
           ++i) {
        const Outcome& o = outcomes[i];
        if (o.state == Outcome::State::Unknown) {
          wave.push_back(i);
          // Enough unresolved trials that, were they all feasible, the
          // prefix would fill k: evaluate before scanning further.
          if (chosen.size() + wave.size() >= static_cast<std::size_t>(p.k)) {
            break;
          }
        } else if (o.feasible) {
          chosen.push_back(i);
        }
      }
      if (!wave.empty()) {
        if (pool) {
          pool->parallel_for(wave.size(),
                             [&](std::size_t w) { evaluate_at(wave[w]); });
        } else {
          for (std::size_t w = 0; w < wave.size(); ++w) evaluate_at(wave[w]);
        }
        for (std::size_t i : wave) remember(i);
        continue;  // re-scan with the new knowledge
      }

      if (chosen.empty()) break;  // no feasible merger at all
      std::size_t best = chosen.front();
      for (std::size_t i : chosen) {
        if (outcomes[i].delta_c < outcomes[best].delta_c - 1e-12) best = i;
      }
      if (outcomes[best].state == Outcome::State::Fresh) {
        winner = best;
        break;
      }
      // Cached winner: replace the estimate with a fresh evaluation and
      // re-run the selection on exact numbers.
      evaluate_at(best);
      remember(best);
    }
    if (trace) {
      trace->add_span("synth.trials", trials_start,
                      trace->now_us() - trials_start);
    }

    // Step 15: "until no merger exists".  dC selects *which* merger to
    // commit this iteration; termination happens only when no pair can be
    // merged at all within the latency budget (mergers monotonically shrink
    // the candidate space, so this always terminates).  The cost-driven
    // variant additionally stops when the best candidate no longer pays.
    if (!winner) {
      converged = true;
      break;
    }
    Outcome& win = outcomes[*winner];
    if (p.require_improvement && win.delta_c >= -1e-12) {
      converged = true;
      break;
    }

    // Steps 12-14: commit the merger.  The winner's trial ran on a throwaway
    // workspace; re-apply its merger onto a copy of the committed binding,
    // let the context derive the committed ETPN and testability fixpoint
    // from scratch and hand it the trial's cost, and only then move the
    // staged state into `result`.  The commit is exception-atomic with
    // respect to `result`, which is what makes the catch below safe to
    // resume from; a throw in ctx.commit poisons the context, which the
    // catch turns into a degraded (previous-checkpoint) return.
    HLTS_SPAN("synth.commit");
    const testability::MergeCandidate& cand = ranking[*winner];
    IterationRecord rec;
    rec.description = cand.description(g, result.binding);
    rec.delta_e = win.delta_e;
    rec.delta_h = win.delta_h;
    rec.delta_c = win.delta_c;
    rec.exec_time = win.eval.exec_time;

    etpn::Binding next_b = result.binding;
    cand.apply(g, next_b);
    ctx.commit(next_b, win.eval.schedule, win.eval.cost);
    rec.hw_cost = win.eval.cost.total();
    rec.registers = next_b.num_alive_regs();
    rec.modules = next_b.num_alive_modules();
    rec.balance_index = ctx.analysis().balance_index();
    if (p.trial_cache) {
      // Drop every cached trial that touches one of the committed pair's
      // binding groups: the surviving group changed content and the other
      // became a tombstone.  Disjoint pairs keep their dE/dH.
      const TrialKey committed = make_key(cand);
      std::erase_if(cache, [&](const auto& kv) {
        const TrialKey& k = kv.first;
        return k.kind == committed.kind &&
               (k.a == committed.a || k.a == committed.b ||
                k.b == committed.a || k.b == committed.b);
      });
    }
    result.binding = std::move(next_b);
    result.schedule = std::move(win.eval.schedule);
    result.exec_time = rec.exec_time;
    result.cost = win.eval.cost;
    HLTS_DEBUG("iter " << iter << ": " << rec.description << " dC=" << rec.delta_c
                       << " E=" << rec.exec_time << " H=" << rec.hw_cost);
    result.trajectory.push_back(std::move(rec));
    util::count("synth.mergers");
    util::count("synth.checkpoints");
    if (p.audit) {
      enforce_audit(audit_design(g, result.schedule, result.binding),
                    "iteration commit");
      enforce_audit(audit_etpn(g, ctx.etpn(), result.binding),
                    "iteration commit");
    }
    if (p.on_iteration) p.on_iteration(result.trajectory.back());
    // Checkpoint cadence, counted in absolute iterations so resumed and
    // uninterrupted runs hit the same boundaries.  `iter + 1` committed
    // mergers are baked into the design at this point.  A throwing hook
    // (e.g. a journal write hitting a fault) lands in the catch below: the
    // just-committed design is complete, so degrading here is safe.
    if (p.on_checkpoint && p.checkpoint_every > 0 &&
        (iter + 1) % p.checkpoint_every == 0) {
      util::count("synth.checkpoint_emits");
      p.on_checkpoint(Checkpoint{iter + 1, result.schedule, result.binding});
    }
    } catch (const std::exception& ex) {
      // Anytime degradation: a *transient* fault (injected failpoint,
      // allocation failure under memory pressure) anywhere in the iteration
      // is absorbed at this boundary -- `result` still holds the previous
      // checkpoint, which is returned as a Partial result.  Input and
      // Internal errors (contract violations, audit failures) stay fatal:
      // corruption must escape loudly, never as a "valid" partial design.
      if (classify_exception(ex) != ErrorKind::Transient) throw;
      degraded = ex.what();
      util::count("synth.degraded");
      break;
    }
  }

  // Absolute count: a resumed run reports the same iteration number the
  // uninterrupted run would (its trajectory only holds the mergers committed
  // *after* the checkpoint -- the earlier ones are baked into the seed).
  result.iterations =
      start_iteration + static_cast<int>(result.trajectory.size());
  if (cancelled) {
    result.completeness = Completeness::Partial;
    result.stop_reason = "cancelled";
  } else if (!degraded.empty()) {
    result.completeness = Completeness::Partial;
    result.stop_reason = "degraded: " + degraded;
  } else if (memory_stop) {
    result.completeness = Completeness::Partial;
    result.stop_reason = "memory_budget";
  } else if (converged) {
    result.completeness = Completeness::Full;
    result.stop_reason = "converged";
  } else {
    result.completeness = Completeness::Partial;
    result.stop_reason = "iteration_budget";
  }

  result.binding.validate(g);
  HLTS_REQUIRE(schedule_respects_binding(g, result.binding, result.schedule),
               "synthesis result violates its own binding");
  return result;
}

}  // namespace hlts::core
