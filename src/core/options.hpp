// The single declaration of the Algorithm-1 knob set.
//
// `core::FlowParams` (the flow-level API) and `core::SynthesisParams` (the
// algorithm-level API) used to declare k/alpha/beta/bits/max_latency/
// num_threads/library twice and copy them by hand in flows.cpp;
// AlgorithmOptions is the one shared struct both now embed.  FlowParams is
// an alias of it (it carried exactly these fields), which keeps designated
// initializers like `run_flow(kind, g, {.bits = 4})` working; SynthesisParams
// inherits it, so `p.k = ...` member access is unchanged and run_flow copies
// the whole knob set with one slice assignment.  The engine's FlowRequest
// carries a FlowParams, so every entry point shares this declaration.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "cost/module_library.hpp"

namespace hlts::core {

/// One committed merger of Algorithm 1's trajectory.
struct IterationRecord {
  std::string description;  ///< e.g. "merge modules (*: N21 | *: N24)"
  double delta_e = 0;       ///< relative execution-time change
  double delta_h = 0;       ///< relative hardware-cost change
  double delta_c = 0;       ///< alpha*dE + beta*dH
  int exec_time = 0;        ///< schedule length after the merger
  double hw_cost = 0;       ///< hardware cost after the merger
  int registers = 0;
  int modules = 0;
  double balance_index = 0;  ///< testability balance after the merger
};

/// How much of the requested computation a result represents.
///
/// Algorithm 1 is an *anytime* algorithm: every committed merger leaves a
/// complete, valid schedule + allocation, so a run stopped early --
/// cancellation, timeout, iteration/memory budget, or graceful degradation
/// after a transient fault -- still returns the best design it had, tagged
/// Partial.  A Partial result at iteration k is bit-identical to a run
/// capped at max_iterations = k.
enum class Completeness {
  Full,     ///< the algorithm ran to its natural termination
  Partial,  ///< stopped early; the result is the last committed checkpoint
};

/// "full" / "partial".
[[nodiscard]] const char* completeness_name(Completeness c);

/// A resumable Algorithm-1 state: the committed design after `iteration`
/// mergers.  Defined in core/checkpoint.hpp (it carries a full schedule +
/// binding); options only ever point at one.
struct Checkpoint;

/// Knobs shared by all synthesis entry points (the Algorithm-1 parameters
/// apply to the Camad/Ours flows; bits/max_latency/library to all four).
/// Test-generation settings are not synthesis knobs: they live only in
/// atpg::AtpgOptions.
struct AlgorithmOptions {
  int bits = 8;        ///< data path width for the cost model
  int k = 5;           ///< candidate pairs evaluated per iteration
  double alpha = 2.0;  ///< weight of dE (control steps)
  double beta = 1.0;   ///< weight of dH (units of 0.01 mm^2)
  /// Latency budget: a merger whose rescheduled length exceeds this is
  /// infeasible.  0 means "critical path + 1" (one control step of slack
  /// for sharing, which is what the paper's schedules in Figs. 2-3 use).
  int max_latency = 0;
  /// Concurrency of the per-iteration trial evaluation (merge patch ->
  /// reschedule -> cost estimate): 0 means
  /// util::ThreadPool::default_threads() (the HLTS_THREADS environment
  /// variable, else std::thread::hardware_concurrency()); 1 forces the
  /// serial path.  With more than one thread each wave of trials is padded
  /// with later candidates in rank order, up to 4 per thread, so the pool
  /// stays busy when most trials are rejected.  The result is bit-identical
  /// for every value -- trials are independent and exact, selection reads
  /// the first k feasible candidates in rank order, and the reduction is
  /// deterministic (smallest dC, ties broken by candidate rank); only the
  /// number of evaluated trials (synth.trials_speculative) changes.
  int num_threads = 0;
  /// Iteration budget for the merger loop.  A run that exhausts it returns
  /// its current design tagged Completeness::Partial -- the anytime
  /// contract's "capped run", and the reference a cancelled run at the same
  /// iteration count is bit-identical to.
  int max_iterations = 10000;
  /// Approximate working-set budget in bytes for one iteration's trial
  /// evaluations (the dominant allocation: up to one merge patch +
  /// schedule per ranked candidate).  When the estimate for the coming
  /// iteration exceeds the budget, the loop stops gracefully with a
  /// Partial result instead of risking an OOM kill.  0 = unlimited.
  std::size_t memory_budget_bytes = 0;
  /// Runs the core/validate invariant auditor (DFG/schedule/binding/ETPN
  /// structural checks) on the initial state and after every committed
  /// merger; a violation throws hlts::Error(ErrorKind::Internal).  Off by
  /// default: auditing is for tests, fault-injection soaks, and debugging.
  bool audit = false;
  cost::ModuleLibrary library = cost::ModuleLibrary::standard();

  // --- run hooks (never influence the synthesized result) -----------------
  /// Cooperative cancellation: when set and the pointee becomes true, the
  /// Algorithm-1 merger loop stops at the next iteration boundary and the
  /// partial (but fully consistent) design is returned.  The pointee may be
  /// flipped from any thread.
  const std::atomic<bool>* cancel = nullptr;
  /// Progress streaming: called on the synthesizing thread after each
  /// committed merger, with the iteration's record.  Combined with `cancel`
  /// this bounds cancellation latency to one Algorithm-1 iteration.
  std::function<void(const IterationRecord&)> on_iteration = nullptr;

  // --- durability hooks (never influence the synthesized result) ----------
  /// Checkpoint cadence: with on_checkpoint set, the loop hands out a
  /// Checkpoint of the committed design every `checkpoint_every` committed
  /// mergers (counted in *absolute* iterations, so a resumed run writes
  /// checkpoints at the same boundaries an uninterrupted run would).
  /// 0 disables checkpoint streaming.
  int checkpoint_every = 0;
  /// Called on the synthesizing thread with the best-so-far design.  The
  /// engine's journal persists it; any callback must treat the state as
  /// read-only.
  std::function<void(const Checkpoint&)> on_checkpoint = nullptr;
  /// Resume point: instead of the default ASAP schedule + identity binding,
  /// the merger loop starts from this previously committed checkpoint.
  /// Because the loop's entire state is (schedule, binding) -- everything
  /// else is deterministically rederived -- the continuation is
  /// bit-identical to the uninterrupted run from iteration
  /// `resume_from->iteration` on.  The pointee must outlive the run.
  /// Ignored by the non-iterative flows (Approach 1/2).
  const Checkpoint* resume_from = nullptr;
};

/// Flow-level parameter set: exactly the shared knob set.  An alias rather
/// than a wrapper so aggregate/designated initialization keeps working.
using FlowParams = AlgorithmOptions;

}  // namespace hlts::core
