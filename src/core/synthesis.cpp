#include "core/synthesis.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>

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

/// Closeness of every pair of `nodes` (one kind: all modules or all
/// registers): the number of shared sources plus the number of shared
/// destinations (distinct data-path nodes either way), plus one when an arc
/// joins the two.  Shared sources/destinations save multiplexer inputs and
/// wires; a direct connection is "closeness" as well.  Calls
/// `visit(i, j, score)` for every pair i < j scoring above 0, in (i, j)
/// order.
///
/// Scored through an inverted index: each candidate's distinct neighbours
/// and each neighbour's users (candidates, ascending), so row i counts its
/// shared neighbours with every later candidate in one pass over its
/// neighbours' users instead of one list merge per pair.
template <typename Visit>
void close_pairs(const etpn::DataPath& dp,
                 const std::vector<etpn::DpNodeId>& nodes, Visit&& visit) {
  const std::size_t c = nodes.size();
  std::vector<int> index(dp.num_nodes(), -1);
  for (std::size_t i = 0; i < c; ++i) {
    index[nodes[i].index()] = static_cast<int>(i);
  }
  // Per side (0: sources, 1: destinations), as CSR: every candidate's
  // distinct neighbours, and every data-path node's users.
  std::vector<std::uint32_t> nb_begin[2], nb[2], user_begin[2], users[2];
  for (int side = 0; side < 2; ++side) {
    nb_begin[side].assign(c + 1, 0);
    for (std::size_t i = 0; i < c; ++i) {
      const std::size_t from = nb[side].size();
      for (etpn::DpArcId a : side == 0 ? dp.in_arcs(nodes[i])
                                       : dp.out_arcs(nodes[i])) {
        const etpn::DpArc& arc = dp.arc(a);
        nb[side].push_back((side == 0 ? arc.from : arc.to).value());
      }
      const auto first = nb[side].begin() + static_cast<std::ptrdiff_t>(from);
      std::sort(first, nb[side].end());
      nb[side].erase(std::unique(first, nb[side].end()), nb[side].end());
      nb_begin[side][i + 1] = static_cast<std::uint32_t>(nb[side].size());
    }
    user_begin[side].assign(dp.num_nodes() + 1, 0);
    for (std::uint32_t x : nb[side]) ++user_begin[side][x + 1];
    for (std::size_t x = 0; x < dp.num_nodes(); ++x) {
      user_begin[side][x + 1] += user_begin[side][x];
    }
    users[side].resize(nb[side].size());
    std::vector<std::uint32_t> fill(user_begin[side].begin(),
                                    user_begin[side].end() - 1);
    for (std::size_t i = 0; i < c; ++i) {
      for (std::uint32_t k = nb_begin[side][i]; k < nb_begin[side][i + 1];
           ++k) {
        users[side][fill[nb[side][k]]++] = static_cast<std::uint32_t>(i);
      }
    }
  }

  std::vector<int> score(c, 0);
  std::vector<std::uint8_t> joined(c, 0);
  for (std::size_t i = 0; i < c; ++i) {
    for (int side = 0; side < 2; ++side) {
      for (std::uint32_t k = nb_begin[side][i]; k < nb_begin[side][i + 1];
           ++k) {
        const std::uint32_t x = nb[side][k];
        for (std::uint32_t u = user_begin[side][x];
             u < user_begin[side][x + 1]; ++u) {
          if (users[side][u] > i) ++score[users[side][u]];
        }
        // An arc from or to a later candidate joins the pair.
        if (index[x] > static_cast<int>(i)) joined[index[x]] = 1;
      }
    }
    for (std::size_t j = i + 1; j < c; ++j) {
      const int sj = score[j] + joined[j];
      score[j] = 0;
      joined[j] = 0;
      if (sj > 0) visit(i, j, sj);
    }
  }
}

/// One evaluated trial: merged design -> reschedule -> hardware cost of the
/// merged data path.  The winner's merger is re-applied at commit time.
struct TrialEval {
  bool feasible = false;
  sched::Schedule schedule;
  int exec_time = 0;
  cost::HardwareCost cost;  ///< committed as is when the trial wins
  CycleVerdict cycles = CycleVerdict::Acyclic;
  bool over_latency = false;  ///< rescheduled, but past the latency bound
  /// The proof that cycles make the trial infeasible, for the next
  /// iteration's trial of the same merger.
  std::shared_ptr<const CycleCertificate> certificate;
};

/// One trial on a checked-out workspace, in the order that lets a rejected
/// trial stop early: the binding merge goes on in place, the rescheduler
/// edits the workspace's base constraint graph -- the committed design's
/// chains, built at the workspace's first trial of the iteration -- and
/// reads register distances updated from the committed design's, and only
/// a trial that is feasible within the latency bound has its schedule
/// checked against the merged binding and merge-patches the data path for
/// its cost estimate.  A `certificate` the same merger's trial left in the
/// previous iteration is checked first (reschedule_merger).  The numbers
/// are bit-identical to a
/// binding copy -> reschedule -> build_data_path -> estimate_cost pipeline,
/// which the tests keep as the reference
/// (tests/support/reference_synthesis.hpp).
TrialEval evaluate_trial(const dfg::Dfg& g, const SynthesisParams& p,
                         analysis::IncrementalContext& ctx,
                         const sched::Schedule& hint,
                         const testability::MergeCandidate& cand,
                         int max_latency,
                         const std::shared_ptr<const CycleCertificate>&
                             certificate) {
  TrialEval t;
  std::unique_ptr<analysis::TrialWorkspace> ws = ctx.checkout();
  if (ws->resched_epoch != ctx.epoch()) {
    build_trial_base(g, ctx.tables(), ws->binding, hint, ws->resched);
    ws->resched_epoch = ctx.epoch();
  }
  {
    const analysis::BindingMerge merge(g, *ws, cand);
    ReschedOutcome r = reschedule_merger(
        g, ws->binding, hint, p.order,
        MergerDistances{ctx.etpn(), ctx.reach(), ws->d_in, ws->d_queue}, cand,
        ws->resched, certificate);
    t.cycles = r.cycles;
    t.certificate = std::move(r.certificate);
    t.over_latency = r.feasible && r.schedule.length() > max_latency;
    if (r.feasible && !t.over_latency) {
      HLTS_REQUIRE(schedule_respects_binding(g, ws->binding, r.schedule),
                   "rescheduler produced a schedule violating the binding");
      t.feasible = true;
      t.schedule = std::move(r.schedule);
      t.exec_time = t.schedule.length();
      const analysis::DataPathMerge patch(*ws, cand);
      t.cost =
          cost::estimate_cost(ws->etpn.data_path, p.library, p.bits, ws->cost);
    }
  }
  ctx.checkin(std::move(ws));
  return t;
}

/// Per-candidate knowledge within one iteration.
struct Outcome {
  bool evaluated = false;
  double delta_e = 0, delta_h = 0, delta_c = 0;  ///< set when eval.feasible
  TrialEval eval;
};

/// The previous iteration's cycle certificates, sorted by merger: the merge
/// kind and the two group ids, which survive a commit that does not merge
/// them away.
struct MergerKey {
  bool modules = false;
  std::uint32_t a = 0, b = 0;
  auto operator<=>(const MergerKey&) const = default;
};
using Certificates =
    std::vector<std::pair<MergerKey, std::shared_ptr<const CycleCertificate>>>;

MergerKey merger_key(const testability::MergeCandidate& c) {
  return c.is_modules()
             ? MergerKey{true, c.module_a.value(), c.module_b.value()}
             : MergerKey{false, c.reg_a.value(), c.reg_b.value()};
}

const std::shared_ptr<const CycleCertificate>& find_certificate(
    const Certificates& certificates, const testability::MergeCandidate& c) {
  static const std::shared_ptr<const CycleCertificate> none;
  const MergerKey key = merger_key(c);
  const auto it = std::lower_bound(
      certificates.begin(), certificates.end(), key,
      [](const auto& entry, const MergerKey& k) { return entry.first < k; });
  return it != certificates.end() && it->first == key ? it->second : none;
}

/// Trials per pool thread in one wave.  The wave that fills k is padded with
/// the next unevaluated candidates in rank order up to this many per thread,
/// so the pool has work even when most trials are rejected; selection reads
/// the same rank-order prefix, so padding changes only how many evaluations
/// go unread.
constexpr std::size_t kWaveTrialsPerThread = 4;

/// Adds an iteration's trial outcome classes to the trace's counters, once
/// per iteration (speculative trials included).
void count_trial_outcomes(util::Trace& trace,
                          const std::vector<Outcome>& outcomes) {
  std::int64_t multi = 0, rescued = 0, unrescued = 0, certified = 0;
  std::int64_t over_latency = 0, costed = 0;
  for (const Outcome& o : outcomes) {
    if (!o.evaluated) continue;
    multi += o.eval.cycles == CycleVerdict::Multi ? 1 : 0;
    rescued += o.eval.cycles == CycleVerdict::Rescued ? 1 : 0;
    unrescued += o.eval.cycles == CycleVerdict::Unrescued ? 1 : 0;
    certified += o.eval.cycles == CycleVerdict::Certified ? 1 : 0;
    over_latency += o.eval.over_latency ? 1 : 0;
    costed += o.eval.feasible ? 1 : 0;
  }
  const std::pair<const char*, std::int64_t> counts[] = {
      {"synth.trials_cyclic_multi", multi},
      {"synth.trials_cyclic_rescued", rescued},
      {"synth.trials_cyclic_unrescued", unrescued},
      {"synth.trials_certified", certified},
      {"synth.trials_over_latency", over_latency},
      {"synth.trials_costed", costed}};
  for (const auto& [name, n] : counts) {
    if (n > 0) trace.add_counter(name, n);
  }
}

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

/// The connectivity ranking as a stream: pairs sharing many
/// sources/destinations score high (merging them minimizes interconnect),
/// ignoring testability entirely; pairs sharing nothing are left out.
testability::CandidateStream connectivity_candidates(
    const dfg::Dfg& g, const etpn::Binding& b, const etpn::Etpn& e,
    const testability::OpReachability& reach) {
  testability::CandidateStream stream(g, b, reach);
  const etpn::DataPath& dp = e.data_path;

  // A closeness-driven allocator only considers pairs that actually share
  // interconnect; merging unrelated nodes brings it no wiring benefit, so
  // pairs scoring 0 are never enumerated.
  const std::vector<etpn::ModuleId> modules = b.alive_modules();
  std::vector<etpn::DpNodeId> nodes;
  for (etpn::ModuleId m : modules) nodes.push_back(e.module_node[m]);
  close_pairs(dp, nodes, [&](std::size_t i, std::size_t j, int score) {
    if (!b.can_merge_modules(g, modules[i], modules[j])) return;
    testability::MergeCandidate c;
    c.kind = testability::MergeCandidate::Kind::Modules;
    c.module_a = modules[i];
    c.module_b = modules[j];
    c.score = score;
    stream.add(c);
  });
  const std::vector<etpn::RegId> regs = b.alive_regs();
  nodes.clear();
  for (etpn::RegId r : regs) nodes.push_back(e.reg_node[r]);
  close_pairs(dp, nodes, [&](std::size_t i, std::size_t j, int score) {
    if (!b.can_merge_regs(regs[i], regs[j])) return;
    testability::MergeCandidate c;
    c.kind = testability::MergeCandidate::Kind::Registers;
    c.reg_a = regs[i];
    c.reg_b = regs[j];
    c.score = score;
    stream.add(c);
  });
  return stream;
}

}  // namespace

std::vector<testability::MergeCandidate> select_connectivity_candidates(
    const dfg::Dfg& g, const etpn::Binding& b, const etpn::Etpn& e, int k) {
  const testability::OpReachability reach(g);
  return connectivity_candidates(g, b, e, reach)
      .take(static_cast<std::size_t>(std::max(k, 0)));
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
  // it and starting the iteration counter where it left off.
  const Checkpoint* resume = p.resume_from;
  if (resume != nullptr) {
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

  // The committed design's analysis state (data path, testability fixpoint,
  // register reach for SR2 and cost, derived at attach and at each commit)
  // and the trial workspace pool.
  analysis::IncrementalContext ctx(g, p.library, p.bits,
                                  p.order == OrderStrategy::Testability);
  ctx.attach(result.schedule, result.binding);
  result.exec_time = result.schedule.length();
  result.cost = ctx.cost();

  // One pool for the whole run, reused across iterations.  Everything that
  // follows is bit-identical for any thread count: trials are evaluated
  // independently and exactly, and selection reads the same rank-order
  // prefix of verdicts with the same comparison the serial loop uses; the
  // thread count only widens waves (kWaveTrialsPerThread).
  const std::size_t threads = p.num_threads > 0
                                  ? static_cast<std::size_t>(p.num_threads)
                                  : util::ThreadPool::default_threads();
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  const std::size_t wave_width = pool ? kWaveTrialsPerThread * threads : 0;
  const auto k = static_cast<std::size_t>(p.k);

  // Trial evaluation fans out to pool workers, which do not inherit the
  // caller's thread-local trace; counters go through this captured pointer
  // (Trace is thread-safe) so worker-side work is still accounted.
  util::Trace* trace = util::Trace::current();
  // Register-merge feasibility reads op reachability, which depends on the
  // DFG alone: every ranking of the run borrows this one.
  const testability::OpReachability reach(g);

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
  // Cycle certificates of the previous iteration's trials; each iteration
  // replaces them with its own, so only one iteration's are kept.
  Certificates certificates;

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
    // The ranking is a stream: `ranking` and `outcomes` hold the prefix
    // pulled so far, which grows only in the serial scans below -- never
    // while a wave of trials reads them.
    // The synth.candidates span covers the ranking's set-up and its first
    // pull, which builds the stream's winner tree.
    const std::uint64_t candidates_start = trace ? trace->now_us() : 0;
    testability::CandidateStream stream =
        p.policy == SelectionPolicy::BalanceTestability
            ? testability::balance_candidates(g, result.binding, ctx.etpn(),
                                              ctx.analysis(), reach,
                                              p.balance)
            : connectivity_candidates(g, result.binding, ctx.etpn(), reach);
    std::vector<testability::MergeCandidate> ranking;
    std::vector<Outcome> outcomes;
    auto pull = [&] {
      std::optional<testability::MergeCandidate> c = stream.next();
      if (!c) return false;
      ranking.push_back(*c);
      outcomes.emplace_back();
      return true;
    };
    const bool any_candidate = pull();
    if (trace) {
      trace->add_span("synth.candidates", candidates_start,
                      trace->now_us() - candidates_start);
    }
    if (!any_candidate) {
      converged = true;
      break;
    }
    // The memory budget reads the whole ranking.
    if (p.memory_budget_bytes != 0) {
      while (pull()) {
      }
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

    auto evaluate_at = [&](std::size_t i) {
      if (trace) trace->add_counter("synth.trials_evaluated");
      Outcome& o = outcomes[i];
      o.eval = evaluate_trial(g, p, ctx, result.schedule, ranking[i],
                              max_latency,
                              find_certificate(certificates, ranking[i]));
      o.evaluated = true;
      if (o.eval.feasible) {
        o.delta_e = static_cast<double>(o.eval.exec_time) - base_exec;
        o.delta_h = (o.eval.cost.total() - base_hw) / kAreaUnit;
        o.delta_c = p.alpha * o.delta_e + p.beta * o.delta_h;
      }
    };

    // Steps 7-11: resolve the first k feasible candidates in rank order,
    // fanning unresolved trials out across the pool, then pick the smallest
    // dC.
    std::vector<std::size_t> chosen;
    const std::uint64_t trials_start = trace ? trace->now_us() : 0;
    for (;;) {
      chosen.clear();
      std::vector<std::size_t> wave;
      std::size_t i = 0;
      // Stop at enough unresolved trials that, were they all feasible, the
      // prefix would fill k: evaluate before scanning further.
      for (; chosen.size() + wave.size() < k &&
             (i < ranking.size() || pull());
           ++i) {
        if (!outcomes[i].evaluated) {
          wave.push_back(i);
        } else if (outcomes[i].eval.feasible) {
          chosen.push_back(i);
        }
      }
      if (wave.empty()) break;
      // Speculation: pad the wave with the next unevaluated candidates.
      for (; wave.size() < wave_width && (i < ranking.size() || pull()); ++i) {
        if (!outcomes[i].evaluated) wave.push_back(i);
      }
      if (pool) {
        pool->parallel_for(wave.size(),
                           [&](std::size_t w) { evaluate_at(wave[w]); });
      } else {
        for (std::size_t w : wave) evaluate_at(w);
      }
    }
    if (trace) {
      trace->add_span("synth.trials", trials_start,
                      trace->now_us() - trials_start);
      count_trial_outcomes(*trace, outcomes);
      // Padded trials past the k-th feasible candidate: selection never
      // read them, and the serial loop never evaluates them.
      if (chosen.size() == k) {
        std::int64_t unread = 0;
        for (std::size_t j = chosen.back() + 1; j < outcomes.size(); ++j) {
          unread += outcomes[j].evaluated ? 1 : 0;
        }
        if (unread > 0) trace->add_counter("synth.trials_speculative", unread);
      }
    }
    // This iteration's certificates replace the previous ones.
    certificates.clear();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].eval.certificate != nullptr) {
        certificates.emplace_back(merger_key(ranking[i]),
                                  std::move(outcomes[i].eval.certificate));
      }
    }
    std::sort(certificates.begin(), certificates.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });

    std::optional<std::size_t> winner;
    for (std::size_t i : chosen) {
      if (!winner || outcomes[i].delta_c < outcomes[*winner].delta_c - 1e-12) {
        winner = i;
      }
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
