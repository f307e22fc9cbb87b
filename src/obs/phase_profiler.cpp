#include "obs/phase_profiler.hpp"

#include <iomanip>
#include <ostream>

namespace downup::obs {

namespace {

// Aggregate slot names (the "phase/" prefix keeps engine phases apart from
// any fabric-stage aggregates sharing the recorder).
constexpr std::array<const char*, PhaseProfiler::kPhaseCount> kSlotNames = {
    "phase/flow_control",
    "phase/traffic",
    "phase/allocation",
    "phase/arbitration",
};

}  // namespace

const char* PhaseProfiler::toString(Phase phase) noexcept {
  switch (phase) {
    case kFlowControl: return "flow_control";
    case kTraffic: return "traffic";
    case kAllocation: return "allocation";
    case kArbitration: return "arbitration";
    case kPhaseCount: break;
  }
  return "unknown";
}

PhaseProfiler::PhaseProfiler(util::SpanRecorder* recorder)
    : owned_(recorder == nullptr ? std::make_unique<util::SpanRecorder>()
                                 : nullptr),
      recorder_(recorder != nullptr ? recorder : owned_.get()) {
  for (std::uint8_t p = 0; p < kPhaseCount; ++p) {
    ids_[p] = recorder_->registerAggregate(kSlotNames[p]);
  }
}

std::uint64_t PhaseProfiler::totalNanos() const noexcept {
  std::uint64_t total = 0;
  for (std::uint8_t p = 0; p < kPhaseCount; ++p) {
    total += recorder_->aggregateNs(ids_[p]);
  }
  return total;
}

void PhaseProfiler::reset() noexcept {
  for (std::uint8_t p = 0; p < kPhaseCount; ++p) {
    recorder_->resetAggregate(ids_[p]);
  }
  cycles_ = 0;
}

void PhaseProfiler::report(std::ostream& out) const {
  const double total = static_cast<double>(totalNanos());
  const double cycles = static_cast<double>(cycles_ == 0 ? 1 : cycles_);
  out << "phase profile (" << cycles_ << " cycles):\n";
  for (std::uint8_t p = 0; p < kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    const double nanos = static_cast<double>(phaseNanos(phase));
    out << "  " << std::left << std::setw(14) << toString(phase)
        << std::right << std::fixed << std::setprecision(2) << std::setw(10)
        << nanos / 1e6 << " ms  " << std::setw(5) << std::setprecision(1)
        << (total > 0.0 ? 100.0 * nanos / total : 0.0) << "%  "
        << std::setw(8) << std::setprecision(1) << nanos / cycles
        << " ns/cycle\n";
  }
}

}  // namespace downup::obs
