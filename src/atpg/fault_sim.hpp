// Sequential fault simulation with fault dropping.
//
// Faults are simulated in batches of 255: one WideSimulator<4> packet of
// 256 lanes per batch, lane 0 being the good machine.  The 256-lane packet
// amortizes the per-gate traversal cost (gate fetch, kind dispatch,
// levelized walk) over 255 fault lanes and autovectorizes.  The detected
// fault set is bit-identical at every thread count and batch partition,
// because each lane is evaluated independently and detected indices are
// emitted in ascending order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "atpg/wide_sim.hpp"
#include "util/thread_pool.hpp"

namespace hlts::atpg {

class FaultSimulator {
 public:
  /// `num_threads` is the concurrency of detected_by's batch fan-out:
  /// 0 means util::ThreadPool::default_threads() (HLTS_THREADS, else
  /// hardware_concurrency), 1 forces the serial path.  Results are
  /// identical for every value -- batches are independent and detected
  /// indices are concatenated in batch order.
  explicit FaultSimulator(const gates::Netlist& nl, int num_threads = 0);

  /// Simulates `sequence` (from power-up/reset) against `faults`, one
  /// 255-fault batch at a time, and returns the indices (into `faults`) of
  /// detected faults, ascending.
  [[nodiscard]] std::vector<std::size_t> detected_by(
      const TestSequence& sequence, const std::vector<Fault>& faults);

  /// Convenience: runs `sequence`, erases detected faults from `faults`
  /// in place, and returns how many were dropped.  When `dropped` is
  /// non-null the erased faults are appended to it (in ascending-index
  /// order), so callers keeping per-fault ledgers can attribute the drops.
  std::size_t drop_detected(const TestSequence& sequence,
                            std::vector<Fault>& faults,
                            std::vector<Fault>* dropped = nullptr);

  /// Cumulative gate-lane evaluations across all detected_by calls,
  /// including the parallel path's per-batch simulators; feeds the
  /// Mgate-lane-evals/s throughput metric in the benches.
  [[nodiscard]] std::uint64_t gate_lane_evals() const { return lane_evals_; }

 private:
  using Sim = WideSimulator<4>;

  /// Serves the serial path; the parallel path builds a private simulator
  /// per batch.
  Sim sim_;
  /// Present only when num_threads resolved to > 1.
  std::unique_ptr<util::ThreadPool> pool_;
  std::uint64_t lane_evals_ = 0;
};

}  // namespace hlts::atpg
