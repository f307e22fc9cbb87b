// Measurement-side bookkeeping of the wormhole engine, separated from the
// cycle machinery: the engine reports events (flit ejected, packet
// delivered, flit crossed a channel) through this narrow interface and
// never touches the storage behind it.
//
// Latency and queueing-delay distributions are held as bounded-memory
// QuantileSketches instead of unbounded per-packet vectors: mean is exact
// for any run length, and quantiles are exact until 2^16 delivered packets
// (far beyond every test and golden run), then degrade gracefully to
// histogram interpolation — so arbitrarily long measurement windows run in
// O(1) memory.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.hpp"
#include "util/summary.hpp"

namespace downup::sim {

class Telemetry {
 public:
  explicit Telemetry(std::uint32_t channelCount);

  /// A flit left the network through an ejection port.
  void recordEjectedFlit(bool measuring) {
    if (measuring) ++flitsEjectedMeasured_;
  }

  /// A tail flit completed a packet whose generation fell inside the
  /// measurement window.
  void recordDelivered(double latency, double queueingDelay, bool measuring);

  /// A flit entered switch-to-switch channel `channel`.  Gated on the
  /// measurement window internally, like the other recorders, so callers
  /// cannot accidentally count warm-up flits into channel utilization
  /// (whose divisor is the measured-cycle count).
  void recordChannelFlit(std::uint32_t channel, bool measuring) {
    if (measuring) ++channelFlits_[channel];
  }

  std::uint64_t packetsEjectedMeasured() const noexcept {
    return packetsEjectedMeasured_;
  }
  std::uint64_t flitsEjectedMeasured() const noexcept {
    return flitsEjectedMeasured_;
  }
  /// Raw measured latencies while the sketch is still exact (tests).
  std::span<const double> exactLatencies() const noexcept {
    return latency_.exactValues();
  }

  /// Writes every telemetry-owned field of `stats` (latency block, accepted
  /// traffic, channel utilization).
  void fill(RunStats& stats, std::uint64_t measuredCycles,
            std::uint32_t nodeCount) const;

 private:
  std::uint64_t flitsEjectedMeasured_ = 0;
  std::uint64_t packetsEjectedMeasured_ = 0;
  util::QuantileSketch latency_;
  util::QuantileSketch queueingDelay_;
  std::vector<std::uint64_t> channelFlits_;  // per physical channel
};

}  // namespace downup::sim
