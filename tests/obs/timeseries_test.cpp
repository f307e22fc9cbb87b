// TimeSeriesCollector: window bucketing, ring eviction, reconfiguration
// spans, merge semantics — and the engine-level contracts: attached
// collectors are bit-for-bit inert, window totals reconcile with the run
// totals (and the measured windows with the measured ejections), and the
// disabled path stays allocation-free (this binary overrides the global
// allocation functions; one override per binary, same pattern as test_obs's
// zero_overhead_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/downup_routing.hpp"
#include "obs/observer.hpp"
#include "obs/timeseries.hpp"
#include "routing/updown.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "topology/generate.hpp"

namespace {

std::atomic<bool> g_countAllocations{false};
std::atomic<std::uint64_t> g_allocations{0};

void* countedAlloc(std::size_t size) {
  if (g_countAllocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace downup::obs {
namespace {

TimeSeriesCollector makeCollector(std::uint32_t windowCycles,
                                  std::uint32_t maxWindows,
                                  bool perChannel = false) {
  return TimeSeriesCollector(
      {.windowCycles = windowCycles, .maxWindows = maxWindows,
       .perChannel = perChannel},
      /*nodeCount=*/2, /*channelCount=*/2);
}

TEST(TimeSeriesTest, TickClosesWindowsOnBoundaries) {
  TimeSeriesCollector ts = makeCollector(10, 8);
  ts.recordGenerated();
  ts.recordGenerated();
  ts.recordInjectedFlit();
  ts.recordChannelFlit(0);
  ts.recordEjectedFlit();
  ts.recordDelivered(12.0);
  ts.recordBlocked(1, 7);
  ts.recordDrop();
  ts.recordDegradedCycle();
  for (std::uint64_t c = 0; c < 9; ++c) {
    ts.tick(c);
    EXPECT_EQ(ts.windowCount(), 0u);
  }
  ts.tick(9);  // cycle 9 is the last cycle of window [0, 10)
  ASSERT_EQ(ts.windowCount(), 1u);
  const auto& w = ts.window(0);
  EXPECT_EQ(w.startCycle, 0u);
  EXPECT_EQ(w.endCycle, 10u);
  EXPECT_EQ(w.generatedPackets, 2u);
  EXPECT_EQ(w.injectedFlits, 1u);
  EXPECT_EQ(w.channelFlits, 1u);
  EXPECT_EQ(w.ejectedFlits, 1u);
  EXPECT_EQ(w.ejectedPackets, 1u);
  EXPECT_EQ(w.blockedCycles, 7u);
  EXPECT_EQ(w.droppedPackets, 1u);
  EXPECT_EQ(w.degradedCycles, 1u);
  EXPECT_EQ(w.latency.count, 1u);
  EXPECT_DOUBLE_EQ(w.latency.mean, 12.0);

  // Accumulators restarted: the next window sees only its own events.
  ts.recordGenerated();
  ts.tick(19);
  ASSERT_EQ(ts.windowCount(), 2u);
  EXPECT_EQ(ts.window(1).startCycle, 10u);
  EXPECT_EQ(ts.window(1).generatedPackets, 1u);
  EXPECT_EQ(ts.window(1).droppedPackets, 0u);
}

TEST(TimeSeriesTest, FinishFlushesPartialWindowOnce) {
  TimeSeriesCollector ts = makeCollector(100, 4);
  ts.recordGenerated();
  ts.finish(37);
  ASSERT_EQ(ts.windowCount(), 1u);
  EXPECT_EQ(ts.window(0).endCycle, 37u);
  EXPECT_EQ(ts.window(0).generatedPackets, 1u);
  ts.finish(37);  // idempotent: the new open window spans zero cycles
  EXPECT_EQ(ts.windowCount(), 1u);
}

TEST(TimeSeriesTest, RingEvictsOldestWindows) {
  TimeSeriesCollector ts = makeCollector(10, 3);
  for (std::uint64_t w = 0; w < 5; ++w) {
    for (std::uint64_t i = 0; i <= w; ++i) ts.recordGenerated();
    ts.tick(w * 10 + 9);
  }
  EXPECT_EQ(ts.windowsClosed(), 5u);
  ASSERT_EQ(ts.windowCount(), 3u);
  EXPECT_EQ(ts.window(0).startCycle, 20u);
  EXPECT_EQ(ts.window(0).generatedPackets, 3u);
  EXPECT_EQ(ts.window(2).startCycle, 40u);
  EXPECT_EQ(ts.window(2).generatedPackets, 5u);
}

TEST(TimeSeriesTest, LevelAndPerChannelAttribution) {
  TimeSeriesCollector ts = makeCollector(10, 4, /*perChannel=*/true);
  const std::uint32_t nodeLevel[] = {0, 1};
  const std::uint32_t channelLevel[] = {0, 1};
  ts.setLevels(nodeLevel, channelLevel);
  ts.recordChannelFlit(0);
  ts.recordChannelFlit(1);
  ts.recordChannelFlit(1);
  ts.recordBlocked(1, 5);
  ts.tick(9);
  const auto& w = ts.window(0);
  ASSERT_EQ(w.levelFlits.size(), 2u);
  EXPECT_EQ(w.levelFlits[0], 1u);
  EXPECT_EQ(w.levelFlits[1], 2u);
  EXPECT_EQ(w.levelBlockedCycles[1], 5u);
  ASSERT_EQ(w.channelFlitsPerChannel.size(), 2u);
  EXPECT_EQ(w.channelFlitsPerChannel[0], 1u);
  EXPECT_EQ(w.channelFlitsPerChannel[1], 2u);
}

TEST(TimeSeriesTest, ReconfigSpansCompleteEveryPendingEvent) {
  TimeSeriesCollector ts = makeCollector(10, 4);
  ts.onFaultApplied(100);
  ts.onFaultApplied(150);
  ASSERT_EQ(ts.reconfigEvents().size(), 2u);
  EXPECT_TRUE(ts.reconfigEvents()[0].pending());
  ts.onReconfigComplete(220, /*incremental=*/true, /*destinationsRebuilt=*/5,
                        /*unreachablePairs=*/1);
  for (const auto& e : ts.reconfigEvents()) {
    EXPECT_FALSE(e.pending());
    EXPECT_EQ(e.swapCycle, 220u);
    EXPECT_TRUE(e.incremental);
    EXPECT_EQ(e.destinationsRebuilt, 5u);
    EXPECT_EQ(e.unreachablePairs, 1u);
  }
  ts.onFaultApplied(300);  // a later fault opens a fresh pending span
  EXPECT_TRUE(ts.reconfigEvents()[2].pending());
  EXPECT_FALSE(ts.reconfigEvents()[0].pending());
}

TEST(TimeSeriesTest, MergeSumsMatchingWindowsExactly) {
  TimeSeriesCollector a = makeCollector(10, 4);
  TimeSeriesCollector b = makeCollector(10, 4);
  a.recordGenerated();
  a.recordDelivered(10.0);
  a.tick(9);
  b.recordGenerated();
  b.recordGenerated();
  b.recordDelivered(30.0);
  b.tick(9);
  b.onFaultApplied(5);
  a.mergeFrom(b);
  ASSERT_EQ(a.windowCount(), 1u);
  EXPECT_EQ(a.window(0).generatedPackets, 3u);
  EXPECT_EQ(a.window(0).latency.count, 2u);
  EXPECT_DOUBLE_EQ(a.window(0).latency.mean, 20.0);
  EXPECT_DOUBLE_EQ(a.window(0).latency.min, 10.0);
  EXPECT_DOUBLE_EQ(a.window(0).latency.max, 30.0);
  ASSERT_EQ(a.reconfigEvents().size(), 1u);
  EXPECT_EQ(a.reconfigEvents()[0].faultCycle, 5u);
}

TEST(TimeSeriesTest, MergeIntoEmptyCopiesAndMismatchThrows) {
  TimeSeriesCollector a = makeCollector(10, 4);
  TimeSeriesCollector b = makeCollector(10, 4);
  b.recordGenerated();
  b.tick(9);
  a.mergeFrom(b);
  ASSERT_EQ(a.windowCount(), 1u);
  EXPECT_EQ(a.window(0).generatedPackets, 1u);

  // Different window boundaries: not the same run structure.
  TimeSeriesCollector c = makeCollector(10, 4);
  c.recordGenerated();
  c.tick(19);  // first window closes as [0, 20) after a missed boundary
  EXPECT_THROW(a.mergeFrom(c), std::invalid_argument);

  // Different window length: dimension mismatch.
  TimeSeriesCollector d = makeCollector(20, 4);
  EXPECT_THROW(a.mergeFrom(d), std::invalid_argument);
}

TEST(TimeSeriesTest, ResetClearsWindowsEventsAndAccumulators) {
  TimeSeriesCollector ts = makeCollector(10, 4);
  ts.recordGenerated();
  ts.tick(9);
  ts.recordGenerated();
  ts.onFaultApplied(12);
  ts.reset();
  EXPECT_EQ(ts.windowCount(), 0u);
  EXPECT_EQ(ts.windowsClosed(), 0u);
  EXPECT_TRUE(ts.reconfigEvents().empty());
  ts.tick(9);  // the window restarts at cycle 0 with empty accumulators
  ASSERT_EQ(ts.windowCount(), 1u);
  EXPECT_EQ(ts.window(0).generatedPackets, 0u);
}

// --- engine-level contracts ---

// The routing table references the topology it was built from, so the
// members are constructed in place, in dependency order (the trace_test
// fixture pattern) — never moved.
struct Scenario {
  Scenario()
      : topo(makeTopology()),
        ct(makeTree(topo)),
        routing(core::buildDownUp(topo, ct)) {}

  static topo::Topology makeTopology() {
    util::Rng rng(2024);
    return topo::randomIrregular(24, {.maxPorts = 4}, rng);
  }
  static tree::CoordinatedTree makeTree(const topo::Topology& topo) {
    util::Rng rng(7);
    return tree::CoordinatedTree::build(topo,
                                        tree::TreePolicy::kM1SmallestFirst, rng);
  }

  topo::Topology topo;
  tree::CoordinatedTree ct;
  routing::Routing routing;
};

sim::SimConfig smallConfig() {
  sim::SimConfig config;
  config.packetLengthFlits = 8;
  config.warmupCycles = 400;
  config.measureCycles = 2000;
  config.seed = 11;
  return config;
}

TEST(TimeSeriesEngineTest, AttachedCollectorsAreBitForBitInert) {
  const Scenario s;
  const sim::UniformTraffic traffic(s.topo.nodeCount());
  const sim::SimConfig config = smallConfig();

  const sim::RunStats bare =
      sim::simulate(s.routing.table(), traffic, 0.05, config);

  Observer observer({.metrics = true,
                     .timeseriesWindowCycles = 64,
                     .timeseriesPerChannel = true,
                     .waitForSamplePeriod = 16},
                    s.topo, &s.ct);
  sim::SimConfig observed = config;
  observed.observer = &observer;
  const sim::RunStats instrumented =
      sim::simulate(s.routing.table(), traffic, 0.05, observed);

  EXPECT_EQ(bare.packetsGenerated, instrumented.packetsGenerated);
  EXPECT_EQ(bare.packetsEjectedMeasured, instrumented.packetsEjectedMeasured);
  EXPECT_EQ(bare.flitsEjectedMeasured, instrumented.flitsEjectedMeasured);
  EXPECT_DOUBLE_EQ(bare.avgLatency, instrumented.avgLatency);
  EXPECT_DOUBLE_EQ(bare.p99Latency, instrumented.p99Latency);
  EXPECT_DOUBLE_EQ(bare.acceptedFlitsPerNodePerCycle,
                   instrumented.acceptedFlitsPerNodePerCycle);
  ASSERT_EQ(bare.channelUtilization.size(),
            instrumented.channelUtilization.size());
  for (std::size_t c = 0; c < bare.channelUtilization.size(); ++c) {
    EXPECT_DOUBLE_EQ(bare.channelUtilization[c],
                     instrumented.channelUtilization[c]);
  }
}

TEST(TimeSeriesEngineTest, WindowTotalsReconcileWithRunTotals) {
  const Scenario s;
  const sim::UniformTraffic traffic(s.topo.nodeCount());
  sim::SimConfig config = smallConfig();

  Observer observer({.timeseriesWindowCycles = 64}, s.topo, &s.ct);
  config.observer = &observer;
  sim::WormholeNetwork net(s.routing.table(), traffic, 0.05, config);
  net.run();

  TimeSeriesCollector& ts = *observer.timeseries();
  ts.finish(net.now());
  ASSERT_GT(ts.windowCount(), 0u);
  std::uint64_t generated = 0;
  std::uint64_t ejectedPackets = 0;
  std::uint64_t prevEnd = 0;
  for (std::size_t i = 0; i < ts.windowCount(); ++i) {
    const auto& w = ts.window(i);
    if (i > 0) {
      EXPECT_EQ(w.startCycle, prevEnd);  // contiguous coverage
    }
    prevEnd = w.endCycle;
    generated += w.generatedPackets;
    ejectedPackets += w.ejectedPackets;
  }
  // The flight recorder is not warm-up gated: its totals are the raw run
  // totals, not the measured-window aggregates.
  EXPECT_EQ(generated, net.packetsGenerated());
  EXPECT_EQ(ejectedPackets, net.packetsEjected());
  EXPECT_EQ(prevEnd, net.now());
}

// Ejected flits per window of a torus(4, 4) up*/down* run (the windowed
// throughput timeline), closed out at the run's last cycle.
std::vector<std::uint64_t> ejectedFlitsPerWindow(sim::SimConfig config,
                                                 std::uint32_t windowCycles,
                                                 double load,
                                                 sim::RunStats& stats) {
  const topo::Topology topo = topo::torus(4, 4);
  util::Rng rng(1);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  const routing::Routing routing = routing::buildUpDown(topo, ct);
  const sim::UniformTraffic traffic(topo.nodeCount());
  Observer observer({.timeseriesWindowCycles = windowCycles}, topo);
  config.observer = &observer;
  sim::WormholeNetwork net(routing.table(), traffic, load, config);
  stats = net.run();
  TimeSeriesCollector& ts = *observer.timeseries();
  ts.finish(net.now());
  std::vector<std::uint64_t> flits;
  for (std::size_t i = 0; i < ts.windowCount(); ++i) {
    EXPECT_EQ(ts.window(i).startCycle, i * windowCycles);  // none evicted
    flits.push_back(ts.window(i).ejectedFlits);
  }
  return flits;
}

TEST(TimeSeriesEngineTest, MeasuredWindowsSumToMeasuredEjections) {
  sim::SimConfig config;
  config.packetLengthFlits = 8;
  config.warmupCycles = 1000;
  config.measureCycles = 4000;
  sim::RunStats stats;
  const std::vector<std::uint64_t> flits =
      ejectedFlitsPerWindow(config, 500, 0.2, stats);
  ASSERT_EQ(flits.size(), (1000u + 4000u) / 500u);

  // Warm-up is a whole number of windows, so the windows from warm-up on
  // hold exactly the flits ejected during the measurement window.
  std::uint64_t measuredWindows = 0;
  for (std::size_t i = 1000 / 500; i < flits.size(); ++i) {
    measuredWindows += flits[i];
  }
  EXPECT_GT(measuredWindows, 0u);
  EXPECT_EQ(measuredWindows, stats.flitsEjectedMeasured);
}

TEST(TimeSeriesEngineTest, SteadyStateWindowsAreStable) {
  // After warm-up the per-window accepted counts should fluctuate around a
  // stable mean (stationarity), not trend.
  sim::SimConfig config;
  config.packetLengthFlits = 8;
  config.warmupCycles = 2000;
  config.measureCycles = 16000;
  sim::RunStats stats;
  const std::vector<std::uint64_t> flits =
      ejectedFlitsPerWindow(config, 2000, 0.15, stats);
  ASSERT_GE(flits.size(), 8u);
  // Compare the mean of the first and second half of the measured windows.
  double first = 0.0;
  double second = 0.0;
  const std::size_t start = 1;  // skip the warm-up window
  const std::size_t n = flits.size() - start;
  for (std::size_t i = 0; i < n; ++i) {
    (i < n / 2 ? first : second) += static_cast<double>(flits[start + i]);
  }
  first /= static_cast<double>(n / 2);
  second /= static_cast<double>(n - n / 2);
  EXPECT_NEAR(first, second, 0.25 * std::max(first, second));
}

TEST(TimeSeriesEngineTest, DisabledObserverSteadyStateAllocatesNothing) {
  const Scenario s;
  sim::SimConfig config;
  config.packetLengthFlits = 8;
  // The warm-up gate stays closed so no warm-up-gated recorder could fire;
  // the attached-but-empty observer must keep every hook a null check.
  config.warmupCycles = 1u << 30;
  config.measureCycles = 1u << 30;  // stepped manually
  config.adaptiveSelection = false;
  Observer observer({}, s.topo, &s.ct);  // all collectors disabled
  config.observer = &observer;
  const sim::UniformTraffic traffic(s.topo.nodeCount());
  sim::WormholeNetwork net(s.routing.table(), traffic, /*injectionRate=*/0.0,
                           config);

  const auto runRound = [&s, &net](bool counted) {
    for (topo::NodeId src = 0; src < s.topo.nodeCount(); ++src) {
      net.injectPacket(src, (src + 7) % s.topo.nodeCount());
    }
    const std::uint64_t target = net.packetsGenerated();
    g_countAllocations.store(counted, std::memory_order_relaxed);
    int steps = 0;
    while (net.packetsEjected() < target && steps++ < 100000) net.step();
    g_countAllocations.store(false, std::memory_order_relaxed);
    return target;
  };

  for (int round = 0; round < 4; ++round) runRound(/*counted=*/false);
  g_allocations.store(0, std::memory_order_relaxed);
  const std::uint64_t target = runRound(/*counted=*/true);

  EXPECT_EQ(net.packetsEjected(), target) << "drain round did not complete";
  EXPECT_EQ(g_allocations.load(), 0u)
      << "engine hot path allocated with a disabled observer attached";
}

}  // namespace
}  // namespace downup::obs
