#include "atpg/fault_sim.hpp"

#include <algorithm>

#include "util/failpoint.hpp"

namespace hlts::atpg {

namespace {

/// Runs faults [base, base + batch) through `sim` and appends the detected
/// indices (into the full fault list) to `out`, in ascending order.
template <int W>
void run_batch(WideSimulator<W>& sim, const TestSequence& sequence,
               const std::vector<Fault>& faults, std::size_t base,
               std::size_t batch, std::vector<std::size_t>& out) {
  sim.clear_faults();
  for (std::size_t i = 0; i < batch; ++i) {
    sim.inject(static_cast<int>(i + 1), faults[base + i]);
  }
  sim.reset_state();
  // Lanes 1..batch carry faults; lane 0 is the fault-free reference.
  Packet<W> all_lanes = Packet<W>::zero();
  for (std::size_t i = 0; i < batch; ++i) {
    all_lanes.set_lane(static_cast<int>(i + 1));
  }
  Packet<W> caught = Packet<W>::zero();
  for (const TestVector& v : sequence) {
    caught |= sim.step(v);
    // All injected lanes of this batch already detected: stop early.
    if ((caught & all_lanes) == all_lanes) break;
  }
  for (std::size_t i = 0; i < batch; ++i) {
    if (caught.lane(static_cast<int>(i + 1))) {
      out.push_back(base + i);
    }
  }
}

}  // namespace

FaultSimulator::FaultSimulator(const gates::Netlist& nl, int num_threads)
    : sim_(nl) {
  const std::size_t threads =
      num_threads > 0 ? static_cast<std::size_t>(num_threads)
                      : util::ThreadPool::default_threads();
  if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
}

std::vector<std::size_t> FaultSimulator::detected_by(
    const TestSequence& sequence, const std::vector<Fault>& faults) {
  HLTS_FAILPOINT("atpg.fault_sim");
  // One batch per packet: 255 faults (lane 0 is the good machine).
  constexpr std::size_t kCap = static_cast<std::size_t>(Sim::kLanes) - 1;
  const std::size_t num_batches = (faults.size() + kCap - 1) / kCap;
  if (!pool_ || num_batches < 2) {
    std::vector<std::size_t> detected;
    const std::uint64_t before = sim_.gate_lane_evals();
    for (std::size_t base = 0; base < faults.size(); base += kCap) {
      const std::size_t batch = std::min(kCap, faults.size() - base);
      run_batch(sim_, sequence, faults, base, batch, detected);
    }
    lane_evals_ += sim_.gate_lane_evals() - before;
    return detected;
  }

  // Batches are independent: fan them out, each on a private simulator, and
  // concatenate in batch order so the result matches the serial path.
  std::vector<std::vector<std::size_t>> per_batch(num_batches);
  std::vector<std::uint64_t> per_batch_evals(num_batches, 0);
  pool_->parallel_for(num_batches, [&](std::size_t bi) {
    const std::size_t base = bi * kCap;
    const std::size_t batch = std::min(kCap, faults.size() - base);
    Sim sim(sim_.netlist());
    run_batch(sim, sequence, faults, base, batch, per_batch[bi]);
    per_batch_evals[bi] = sim.gate_lane_evals();
  });
  std::vector<std::size_t> detected;
  for (std::size_t bi = 0; bi < num_batches; ++bi) {
    detected.insert(detected.end(), per_batch[bi].begin(),
                    per_batch[bi].end());
    lane_evals_ += per_batch_evals[bi];
  }
  return detected;
}

std::size_t FaultSimulator::drop_detected(const TestSequence& sequence,
                                          std::vector<Fault>& faults,
                                          std::vector<Fault>* dropped) {
  std::vector<std::size_t> hit = detected_by(sequence, faults);
  if (hit.empty()) return 0;
  if (dropped != nullptr) {
    for (const std::size_t i : hit) dropped->push_back(faults[i]);
  }
  // Erase by index, back to front (indices are ascending).
  for (auto it = hit.rbegin(); it != hit.rend(); ++it) {
    faults.erase(faults.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  return hit.size();
}

}  // namespace hlts::atpg
