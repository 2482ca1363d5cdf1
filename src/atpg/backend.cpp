#include "atpg/backend.hpp"

#include "atpg/podem.hpp"
#include "atpg/sat_backend.hpp"
#include "util/error.hpp"

namespace hlts::atpg {

namespace {

/// The pre-seam deterministic path, verbatim: TimeFramePodem with a
/// per-fault backtrack budget.  Wrapping it keeps run_atpg's default mode
/// bit-identical to the monolithic orchestrator.
class TimeFrameBackend final : public DeterministicBackend {
 public:
  TimeFrameBackend(const gates::Netlist& nl, const BackendConfig& config)
      : podem_(nl, config.frames), backtrack_limit_(config.backtrack_limit) {}

  [[nodiscard]] const char* name() const override { return "timeframe"; }

  [[nodiscard]] BackendResult generate(const Fault& fault) override {
    const PodemResult pr = podem_.generate(fault, backtrack_limit_);
    BackendResult r;
    switch (pr.status) {
      case PodemStatus::Detected:
        r.status = BackendStatus::Detected;
        r.sequence = pr.sequence;
        break;
      case PodemStatus::Untestable:
        r.status = BackendStatus::Untestable;
        break;
      case PodemStatus::Aborted:
        r.status = BackendStatus::Aborted;
        break;
    }
    r.effort = pr.backtracks;
    ++stats_.targets;
    stats_.effort += static_cast<std::uint64_t>(pr.backtracks);
    if (r.status == BackendStatus::Detected) ++stats_.detected;
    if (r.status == BackendStatus::Untestable) ++stats_.untestable;
    if (r.status == BackendStatus::Aborted) ++stats_.aborted;
    return r;
  }

  [[nodiscard]] const BackendStats& stats() const override { return stats_; }

 private:
  TimeFramePodem podem_;
  int backtrack_limit_;
  BackendStats stats_;
};

}  // namespace

std::unique_ptr<DeterministicBackend> make_backend(BackendKind kind,
                                                   const gates::Netlist& nl,
                                                   const BackendConfig& config) {
  HLTS_REQUIRE_INPUT(config.frames >= 1, "backend needs >= 1 time frames");
  if (kind == BackendKind::Sat) return std::make_unique<SatBackend>(nl, config);
  return std::make_unique<TimeFrameBackend>(nl, config);
}

}  // namespace hlts::atpg
