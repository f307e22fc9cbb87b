// Telemetry unit tests: zero-delivery fills and the measurement-window
// gating of every recorder.
#include "sim/telemetry.hpp"

#include <gtest/gtest.h>

namespace downup::sim {
namespace {

TEST(TelemetryTest, WarmupFlitsStayOutOfMeasuredCounter) {
  // The measured ejected-flit counter honours the measurement-window gate.
  Telemetry telemetry(1);
  telemetry.recordEjectedFlit(/*measuring=*/false);
  telemetry.recordEjectedFlit(/*measuring=*/true);

  RunStats stats;
  telemetry.fill(stats, 20, 1);
  EXPECT_EQ(stats.flitsEjectedMeasured, 1u);
}

TEST(TelemetryTest, ZeroDeliveredPacketsFillsFiniteDefaults) {
  // A run that delivered nothing must not divide by zero or emit NaNs:
  // the latency block stays at its zero defaults.
  Telemetry telemetry(3);
  RunStats stats;
  telemetry.fill(stats, /*measuredCycles=*/1000, /*nodeCount=*/8);
  EXPECT_EQ(stats.packetsEjectedMeasured, 0u);
  EXPECT_EQ(stats.flitsEjectedMeasured, 0u);
  EXPECT_DOUBLE_EQ(stats.avgLatency, 0.0);
  EXPECT_DOUBLE_EQ(stats.p50Latency, 0.0);
  EXPECT_DOUBLE_EQ(stats.p99Latency, 0.0);
  EXPECT_DOUBLE_EQ(stats.acceptedFlitsPerNodePerCycle, 0.0);
  ASSERT_EQ(stats.channelUtilization.size(), 3u);
  for (double u : stats.channelUtilization) EXPECT_DOUBLE_EQ(u, 0.0);
}

TEST(TelemetryTest, ZeroMeasuredCyclesClampsDivisor) {
  // measuredCycles == 0 (e.g. a run that deadlocked during warm-up) clamps
  // the divisor to 1 instead of producing inf/NaN.
  Telemetry telemetry(1);
  telemetry.recordEjectedFlit(true);
  telemetry.recordChannelFlit(0, true);
  RunStats stats;
  telemetry.fill(stats, 0, 2);
  EXPECT_DOUBLE_EQ(stats.acceptedFlitsPerNodePerCycle, 0.5);
  EXPECT_DOUBLE_EQ(stats.channelUtilization[0], 1.0);
}

TEST(TelemetryTest, ChannelFlitRecorderGatesOnMeasurementWindow) {
  // The gate lives inside the recorder (like recordEjectedFlit /
  // recordDelivered), so warm-up flits can never leak into utilization.
  Telemetry telemetry(2);
  telemetry.recordChannelFlit(0, /*measuring=*/false);
  telemetry.recordChannelFlit(0, /*measuring=*/true);
  telemetry.recordChannelFlit(1, /*measuring=*/true);
  telemetry.recordChannelFlit(1, /*measuring=*/true);

  RunStats stats;
  telemetry.fill(stats, /*measuredCycles=*/4, /*nodeCount=*/1);
  ASSERT_EQ(stats.channelUtilization.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.channelUtilization[0], 0.25);
  EXPECT_DOUBLE_EQ(stats.channelUtilization[1], 0.5);
}

TEST(TelemetryTest, DeliveredGateSplitsLatencySketchFromMeasuredCount) {
  // recordDelivered always feeds the latency sketch (the caller pre-filters
  // by generation time) but only counts measured packets when gated in.
  Telemetry telemetry(1);
  telemetry.recordDelivered(10.0, 2.0, /*measuring=*/false);
  telemetry.recordDelivered(20.0, 4.0, /*measuring=*/true);
  RunStats stats;
  telemetry.fill(stats, 100, 1);
  EXPECT_EQ(stats.packetsEjectedMeasured, 1u);
  EXPECT_DOUBLE_EQ(stats.avgLatency, 15.0);
  EXPECT_DOUBLE_EQ(stats.avgQueueingDelay, 3.0);
  EXPECT_DOUBLE_EQ(stats.avgNetworkLatency, 12.0);
}

}  // namespace
}  // namespace downup::sim
