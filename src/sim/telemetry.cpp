#include "sim/telemetry.hpp"

#include <algorithm>

namespace downup::sim {

Telemetry::Telemetry(std::uint32_t channelCount)
    : channelFlits_(channelCount, 0) {}

void Telemetry::recordDelivered(double latency, double queueingDelay,
                                bool measuring) {
  latency_.add(latency);
  queueingDelay_.add(queueingDelay);
  if (measuring) ++packetsEjectedMeasured_;
}

void Telemetry::fill(RunStats& stats, std::uint64_t measuredCycles,
                     std::uint32_t nodeCount) const {
  stats.packetsEjectedMeasured = packetsEjectedMeasured_;
  stats.flitsEjectedMeasured = flitsEjectedMeasured_;
  if (latency_.count() > 0) {
    stats.avgLatency = latency_.mean();
    stats.p50Latency = latency_.quantile(0.5);
    stats.p99Latency = latency_.quantile(0.99);
    stats.avgQueueingDelay = queueingDelay_.mean();
    stats.avgNetworkLatency = stats.avgLatency - stats.avgQueueingDelay;
  }
  const double cycles =
      static_cast<double>(std::max<std::uint64_t>(1, measuredCycles));
  stats.acceptedFlitsPerNodePerCycle =
      static_cast<double>(flitsEjectedMeasured_) /
      (cycles * static_cast<double>(nodeCount));
  stats.channelUtilization.resize(channelFlits_.size());
  for (std::size_t c = 0; c < channelFlits_.size(); ++c) {
    stats.channelUtilization[c] =
        static_cast<double>(channelFlits_[c]) / cycles;
  }
}

}  // namespace downup::sim
