#include "support/reference_synthesis.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "etpn/etpn.hpp"
#include "support/reference_layers.hpp"
#include "support/reference_petri.hpp"
#include "util/json.hpp"

namespace hlts::test_support {

namespace {

::testing::AssertionResult same_bits(const char* what, double run,
                                     double reference) {
  if (std::bit_cast<std::uint64_t>(run) ==
      std::bit_cast<std::uint64_t>(reference)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << what << ": run " << run << " vs reference " << reference;
}

void expect_same_record(const core::IterationRecord& run,
                        const core::IterationRecord& ref) {
  EXPECT_EQ(run.description, ref.description);
  EXPECT_TRUE(same_bits("delta_e", run.delta_e, ref.delta_e));
  EXPECT_TRUE(same_bits("delta_h", run.delta_h, ref.delta_h));
  EXPECT_TRUE(same_bits("delta_c", run.delta_c, ref.delta_c));
  EXPECT_EQ(run.exec_time, ref.exec_time);
  EXPECT_TRUE(same_bits("hw_cost", run.hw_cost, ref.hw_cost));
  EXPECT_EQ(run.registers, ref.registers);
  EXPECT_EQ(run.modules, ref.modules);
  EXPECT_TRUE(
      same_bits("balance_index", run.balance_index, ref.balance_index));
}

/// Canonical serialized checkpoint: per-slot member lists including
/// tombstones, so equal strings mean bit-identical designs.
std::string dump(const core::Checkpoint& c) {
  return util::json_dump(core::checkpoint_to_json(c));
}

}  // namespace

ReferenceTrial reference_trial(const dfg::Dfg& g,
                               const core::SynthesisParams& p,
                               const etpn::Binding& base,
                               const sched::Schedule& hint,
                               const testability::MergeCandidate& cand,
                               int max_latency) {
  ReferenceTrial t;
  t.binding = base;
  cand.apply(g, t.binding);
  core::ReschedOutcome r = reference_reschedule(g, t.binding, hint, p.order);
  if (!r.feasible || r.schedule.length() > max_latency) return t;
  t.feasible = true;
  t.schedule = std::move(r.schedule);
  t.exec_time = t.schedule.length();
  const etpn::Etpn e = etpn::build_data_path(g, t.schedule, t.binding);
  t.hw_cost = reference_estimate_cost(e.data_path, p.library, p.bits).total();
  return t;
}

std::optional<ReferenceStep> reference_step(const dfg::Dfg& g,
                                            const core::SynthesisParams& p,
                                            const sched::Schedule& schedule,
                                            const etpn::Binding& binding) {
  const int max_latency =
      p.max_latency > 0 ? p.max_latency : g.critical_path_ops() + 1;
  const etpn::Etpn e = etpn::build_data_path(g, schedule, binding);
  const int all =
      static_cast<int>(e.data_path.num_nodes() * e.data_path.num_nodes());
  std::vector<testability::MergeCandidate> ranking;
  if (p.policy == core::SelectionPolicy::BalanceTestability) {
    const ReferenceTestability analysis(e.data_path);
    ranking = reference_select_balance_candidates(g, binding, e, analysis, all,
                                                  p.balance);
  } else {
    ranking = reference_select_connectivity_candidates(g, binding, e, all);
  }

  const double base_exec = static_cast<double>(schedule.length());
  const double base_hw =
      reference_estimate_cost(e.data_path, p.library, p.bits).total();
  struct Feasible {
    std::size_t rank = 0;
    ReferenceTrial trial;
    double delta_e = 0, delta_h = 0, delta_c = 0;
  };
  std::vector<Feasible> chosen;
  for (std::size_t i = 0;
       i < ranking.size() && chosen.size() < static_cast<std::size_t>(p.k);
       ++i) {
    ReferenceTrial t =
        reference_trial(g, p, binding, schedule, ranking[i], max_latency);
    if (!t.feasible) continue;
    Feasible f;
    f.rank = i;
    f.delta_e = static_cast<double>(t.exec_time) - base_exec;
    f.delta_h = (t.hw_cost - base_hw) / core::kAreaUnit;
    f.delta_c = p.alpha * f.delta_e + p.beta * f.delta_h;
    f.trial = std::move(t);
    chosen.push_back(std::move(f));
  }
  if (chosen.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t j = 0; j < chosen.size(); ++j) {
    if (chosen[j].delta_c < chosen[best].delta_c - 1e-12) best = j;
  }
  Feasible& win = chosen[best];
  if (p.require_improvement && win.delta_c >= -1e-12) return std::nullopt;

  const etpn::Etpn next = etpn::build_data_path(g, win.trial.schedule,
                                                win.trial.binding);
  EXPECT_TRUE(control_matches_schedule(g, win.trial.schedule));
  ReferenceStep step;
  core::IterationRecord& rec = step.record;
  rec.description = ranking[win.rank].description(g, binding);
  rec.delta_e = win.delta_e;
  rec.delta_h = win.delta_h;
  rec.delta_c = win.delta_c;
  rec.exec_time = win.trial.exec_time;
  rec.hw_cost =
      reference_estimate_cost(next.data_path, p.library, p.bits).total();
  rec.registers = win.trial.binding.num_alive_regs();
  rec.modules = win.trial.binding.num_alive_modules();
  rec.balance_index = ReferenceTestability(next.data_path).balance_index();
  step.schedule = std::move(win.trial.schedule);
  step.binding = std::move(win.trial.binding);
  return step;
}

core::SynthesisResult replay_against_reference(const dfg::Dfg& g,
                                               core::SynthesisParams p) {
  EXPECT_EQ(p.memory_budget_bytes, 0u) << "the reference has no budget";
  EXPECT_EQ(p.resume_from, nullptr) << "the replay starts from ASAP";

  std::vector<core::Checkpoint> checkpoints{
      {0, sched::asap(g), etpn::Binding::default_binding(g, p.compat)}};
  p.checkpoint_every = 1;
  p.on_checkpoint = [&](const core::Checkpoint& c) {
    checkpoints.push_back(c);
  };
  const core::SynthesisResult r = core::integrated_synthesis(g, p);
  EXPECT_EQ(checkpoints.size(), r.trajectory.size() + 1) << g.name();

  for (std::size_t i = 0;
       i < r.trajectory.size() && i + 1 < checkpoints.size(); ++i) {
    SCOPED_TRACE(g.name() + " iteration " + std::to_string(i));
    const core::Checkpoint& prev = checkpoints[i];
    const std::optional<ReferenceStep> ref =
        reference_step(g, p, prev.schedule, prev.binding);
    if (!ref) {
      ADD_FAILURE() << "the reference converges where the run commits "
                    << r.trajectory[i].description;
      return r;
    }
    expect_same_record(r.trajectory[i], ref->record);
    EXPECT_EQ(dump(checkpoints[i + 1]),
              dump({prev.iteration + 1, ref->schedule, ref->binding}));
  }

  const core::Checkpoint& last = checkpoints.back();
  EXPECT_EQ(dump({r.iterations, r.schedule, r.binding}), dump(last))
      << g.name() << ": result differs from the last checkpoint";
  if (r.stop_reason == "converged") {
    const std::optional<ReferenceStep> ref =
        reference_step(g, p, last.schedule, last.binding);
    EXPECT_FALSE(ref.has_value())
        << g.name() << ": the run converged but the reference commits "
        << ref->record.description;
  } else {
    EXPECT_EQ(r.stop_reason, "iteration_budget") << g.name();
    EXPECT_EQ(r.iterations, p.max_iterations) << g.name();
  }
  return r;
}

void replay_flow_against_reference(core::FlowKind kind, const dfg::Dfg& g,
                                   const core::FlowParams& params) {
  if (kind == core::FlowKind::Approach1 || kind == core::FlowKind::Approach2) {
    const core::FlowResult r = core::run_flow(kind, g, params);
    EXPECT_EQ(r.iterations, 0) << core::flow_name(kind);
    EXPECT_EQ(r.stop_reason, "complete") << core::flow_name(kind);
    return;
  }
  SCOPED_TRACE(core::flow_name(kind));
  replay_against_reference(g, core::synthesis_params(kind, params));
}

}  // namespace hlts::test_support
