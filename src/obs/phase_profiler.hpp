// Wall-clock attribution of the engine's per-cycle phases, so a perf
// regression can be pinned to allocation vs arbitration vs flow control
// instead of showing up only as a lower aggregate cycles/sec.  The engine
// times each phase with steady_clock only when a profiler is attached; the
// detached path keeps the plain phase calls (see WormholeNetwork::step).
//
// The profiler is a facade over util::SpanRecorder's aggregate slots — the
// same substrate the control-plane rebuild spans use — so engine phases and
// fabric stages share one timing store and one export path (obs_spans/2
// "aggregate" records).  Per-cycle spans would be unaffordable (millions of
// mutex-protected records); aggregates are lock-free accumulation into four
// fixed slots.  By default the profiler owns a private recorder; hand it a
// shared one (Observer does this when control-plane spans are also enabled)
// and the phase totals export alongside the rebuild trace.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>

#include "util/span_recorder.hpp"

namespace downup::obs {

class PhaseProfiler {
 public:
  enum Phase : std::uint8_t {
    kFlowControl,  // pipeline arrivals into VC buffers
    kTraffic,      // Bernoulli / burst packet generation
    kAllocation,   // header routing and output-VC claims
    kArbitration,  // two-level switch allocation + flit movement
    kPhaseCount,
  };

  static const char* toString(Phase phase) noexcept;

  /// Accumulates into `recorder`'s aggregate slots when given; owns a
  /// private recorder otherwise.
  explicit PhaseProfiler(util::SpanRecorder* recorder = nullptr);

  void add(Phase phase, std::uint64_t nanos) noexcept {
    recorder_->accumulate(ids_[phase], nanos);
  }
  void endCycle() noexcept { ++cycles_; }

  std::uint64_t cycles() const noexcept { return cycles_; }
  std::uint64_t phaseNanos(Phase phase) const noexcept {
    return recorder_->aggregateNs(ids_[phase]);
  }
  std::uint64_t totalNanos() const noexcept;

  void reset() noexcept;

  /// The recorder the phase slots live in (shared or owned) — exporters
  /// dump the aggregates from here.
  util::SpanRecorder* recorder() noexcept { return recorder_; }
  const util::SpanRecorder* recorder() const noexcept { return recorder_; }

  /// One line per phase: total ms, share of the phase sum, ns/cycle.
  void report(std::ostream& out) const;

 private:
  std::unique_ptr<util::SpanRecorder> owned_;
  util::SpanRecorder* recorder_;
  std::array<std::uint32_t, kPhaseCount> ids_{};
  std::uint64_t cycles_ = 0;
};

}  // namespace downup::obs
