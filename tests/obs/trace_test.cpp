// Packet tracer tests: sampling, per-hop event well-formedness on a real
// simulation, exporter output shape, and the central observability
// guarantee — an attached observer changes nothing about the run.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "core/downup_routing.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "sim/engine.hpp"
#include "topology/generate.hpp"
#include "util/thread_pool.hpp"

namespace downup {
namespace {

struct Fixture {
  Fixture()
      : topo(makeTopology()),
        ct(makeTree(topo)),
        routing(core::buildDownUp(topo, ct)) {}

  static topo::Topology makeTopology() {
    util::Rng rng(2024);
    return topo::randomIrregular(24, {.maxPorts = 4}, rng);
  }
  static tree::CoordinatedTree makeTree(const topo::Topology& topo) {
    util::Rng rng(7);
    return tree::CoordinatedTree::build(topo, tree::TreePolicy::kM1SmallestFirst,
                                        rng);
  }

  sim::SimConfig config() const {
    sim::SimConfig c;
    c.packetLengthFlits = 8;
    c.warmupCycles = 200;
    c.measureCycles = 2000;
    c.seed = 99;
    return c;
  }

  topo::Topology topo;
  tree::CoordinatedTree ct;
  routing::Routing routing;
};

TEST(PacketTracerTest, SamplingIsDeterministicByPacketId) {
  obs::PacketTracer off(0);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.sampled(0));

  obs::PacketTracer everyThird(3);
  EXPECT_TRUE(everyThird.enabled());
  EXPECT_TRUE(everyThird.sampled(0));
  EXPECT_FALSE(everyThird.sampled(1));
  EXPECT_FALSE(everyThird.sampled(2));
  EXPECT_TRUE(everyThird.sampled(3));
}

TEST(PacketTracerTest, ChannelPathSkipsTheEjectionClaim) {
  obs::PacketTracer tracer(1);
  constexpr std::uint32_t kEject = obs::PacketTracer::kNoChannel;
  tracer.onGenerated(0, 1, 4, 0);
  tracer.onGenerated(1, 2, 3, 0);
  tracer.record(obs::TraceEventKind::kVcAllocated, 0, 1, 1, 5);
  tracer.record(obs::TraceEventKind::kVcAllocated, 1, 1, 2, 6);
  tracer.record(obs::TraceEventKind::kChannelCrossed, 0, 2, 1, 5);
  tracer.record(obs::TraceEventKind::kBlocked, 0, 4, 2, 7, 0, 1, 1);
  tracer.record(obs::TraceEventKind::kVcAllocated, 0, 4, 2, 7);
  tracer.record(obs::TraceEventKind::kVcAllocated, 0, 6, 4, kEject);
  EXPECT_EQ(tracer.channelPath(0), (std::vector<std::uint32_t>{5, 7}));
  EXPECT_EQ(tracer.channelPath(1), (std::vector<std::uint32_t>{6}));
  EXPECT_TRUE(tracer.channelPath(2).empty());
}

TEST(PacketTracerTest, SimulationEventsAreWellFormedPerPacket) {
  const Fixture f;
  obs::Observer observer({.traceSampleEvery = 1}, f.topo, &f.ct);
  sim::SimConfig config = f.config();
  config.observer = &observer;
  const sim::UniformTraffic traffic(f.topo.nodeCount());
  sim::WormholeNetwork net(f.routing.table(), traffic, 0.05, config);
  net.run();

  const obs::PacketTracer& tracer = *observer.tracer();
  ASSERT_GT(tracer.packets().size(), 10u);
  std::size_t ejected = 0;
  for (const auto& packet : tracer.packets()) {
    const auto events = tracer.packetEvents(packet.packet);
    ASSERT_FALSE(events.empty());
    // Life starts with generation at the source, cycles never run backward.
    EXPECT_EQ(events.front().kind, obs::TraceEventKind::kGenerated);
    EXPECT_EQ(events.front().node, packet.src);
    EXPECT_EQ(events.front().cycle, packet.genCycle);
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].cycle, events[i - 1].cycle);
    }
    const auto count = [&events](obs::TraceEventKind kind) {
      return std::count_if(events.begin(), events.end(),
                           [kind](const auto& e) { return e.kind == kind; });
    };
    if (count(obs::TraceEventKind::kEjected) == 0) continue;  // still in flight
    ++ejected;
    EXPECT_EQ(count(obs::TraceEventKind::kGenerated), 1);
    EXPECT_EQ(count(obs::TraceEventKind::kInjected), 1);
    EXPECT_EQ(count(obs::TraceEventKind::kEjected), 1);
    // One VC/eject claim per hop plus the ejection claim; every channel
    // crossing was claimed first.
    EXPECT_GE(count(obs::TraceEventKind::kVcAllocated), 2);
    EXPECT_EQ(count(obs::TraceEventKind::kVcAllocated),
              count(obs::TraceEventKind::kChannelCrossed) + 1);
    // The ejection claim and the eject event carry no channel; the eject
    // event lands at the destination.
    const auto& last = events.back();
    EXPECT_EQ(last.kind, obs::TraceEventKind::kEjected);
    EXPECT_EQ(last.node, packet.dst);
    EXPECT_EQ(last.channel, obs::PacketTracer::kNoChannel);
  }
  EXPECT_GT(ejected, 10u);
}

TEST(PacketTracerTest, ExportersEmitTheDocumentedShapes) {
  const Fixture f;
  obs::Observer observer({.metrics = true, .traceSampleEvery = 2}, f.topo,
                         &f.ct);
  sim::SimConfig config = f.config();
  config.observer = &observer;
  const sim::UniformTraffic traffic(f.topo.nodeCount());
  sim::WormholeNetwork net(f.routing.table(), traffic, 0.05, config);
  net.run();

  std::ostringstream chrome;
  obs::writeChromeTrace(*observer.tracer(), &f.topo, chrome);
  const std::string chromeText = chrome.str();
  EXPECT_NE(chromeText.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chromeText.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chromeText.find("\"process_name\""), std::string::npos);
  EXPECT_EQ(chromeText.back(), '\n');

  std::ostringstream jsonl;
  obs::writeTraceJsonl(*observer.tracer(), &f.topo, jsonl);
  const std::string jsonlText = jsonl.str();
  EXPECT_NE(jsonlText.find("\"schema\":\"obs_trace/1\""), std::string::npos);
  EXPECT_NE(jsonlText.find("\"record\":\"packet\""), std::string::npos);
  EXPECT_NE(jsonlText.find("\"record\":\"event\""), std::string::npos);

  std::ostringstream metrics;
  obs::writeMetricsJsonl(*observer.metrics(), &f.topo, config.measureCycles,
                         metrics);
  const std::string metricsText = metrics.str();
  EXPECT_NE(metricsText.find("\"schema\":\"obs_metrics/1\""),
            std::string::npos);
  EXPECT_NE(metricsText.find("\"gitRev\""), std::string::npos);
  EXPECT_NE(metricsText.find("\"timestampUtc\""), std::string::npos);
  EXPECT_NE(metricsText.find("\"record\":\"level\""), std::string::npos);
  EXPECT_NE(metricsText.find("\"record\":\"turn\""), std::string::npos);
}

TEST(ObserverTest, AttachedObserverLeavesTheRunBitForBitIdentical) {
  // The tentpole guarantee: hooks never draw RNG or alter scheduling, so a
  // fully-enabled observer produces the exact same RunStats as no observer.
  const Fixture f;
  const sim::UniformTraffic traffic(f.topo.nodeCount());

  sim::SimConfig plain = f.config();
  sim::WormholeNetwork bare(f.routing.table(), traffic, 0.08, plain);
  const sim::RunStats expected = bare.run();

  obs::Observer observer({.metrics = true, .traceSampleEvery = 1}, f.topo,
                         &f.ct);
  sim::SimConfig observed = f.config();
  observed.observer = &observer;
  sim::WormholeNetwork traced(f.routing.table(), traffic, 0.08, observed);
  const sim::RunStats actual = traced.run();

  EXPECT_EQ(actual.cycles, expected.cycles);
  EXPECT_EQ(actual.packetsGenerated, expected.packetsGenerated);
  EXPECT_EQ(actual.packetsEjectedMeasured, expected.packetsEjectedMeasured);
  EXPECT_EQ(actual.flitsEjectedMeasured, expected.flitsEjectedMeasured);
  EXPECT_DOUBLE_EQ(actual.avgLatency, expected.avgLatency);
  EXPECT_DOUBLE_EQ(actual.p50Latency, expected.p50Latency);
  EXPECT_DOUBLE_EQ(actual.p99Latency, expected.p99Latency);
  EXPECT_DOUBLE_EQ(actual.avgQueueingDelay, expected.avgQueueingDelay);
  EXPECT_DOUBLE_EQ(actual.acceptedFlitsPerNodePerCycle,
                   expected.acceptedFlitsPerNodePerCycle);
  ASSERT_EQ(actual.channelUtilization.size(),
            expected.channelUtilization.size());
  for (std::size_t c = 0; c < actual.channelUtilization.size(); ++c) {
    EXPECT_DOUBLE_EQ(actual.channelUtilization[c],
                     expected.channelUtilization[c]);
  }

  // And the observer actually observed: packets traced, turns recorded, the
  // engine's channel-flit counts agree with telemetry's.
  EXPECT_EQ(observer.tracer()->packets().size(), traced.packetsGenerated());
  EXPECT_GT(observer.metrics()->totalTurnsTaken(), 0u);
  const auto utilization =
      observer.metrics()->channelUtilization(observed.measureCycles);
  ASSERT_EQ(utilization.size(), expected.channelUtilization.size());
  for (std::size_t c = 0; c < utilization.size(); ++c) {
    EXPECT_DOUBLE_EQ(utilization[c], expected.channelUtilization[c]);
  }
}

TEST(PacketTracerTest, SampledTracesAreIdenticalAcrossPoolWidths) {
  // Sweeps fan simulations out over a thread pool; each sim carries its own
  // tracer, so the recorded traces must not depend on how many workers the
  // pool has. Run the same four seeded sims at pool width 1 and 4 and demand
  // byte-identical packet and event buffers per sim.
  const Fixture f;
  const sim::UniformTraffic traffic(f.topo.nodeCount());
  constexpr std::size_t kSims = 4;

  const auto runAll = [&](std::size_t workers) {
    std::vector<std::unique_ptr<obs::Observer>> observers(kSims);
    for (auto& o : observers) {
      o = std::make_unique<obs::Observer>(
          obs::ObsOptions{.traceSampleEvery = 2}, f.topo, &f.ct);
    }
    util::ThreadPool pool(workers);
    util::parallelFor(pool, kSims, [&](std::size_t i) {
      sim::SimConfig config = f.config();
      config.seed = 99 + i;
      config.observer = observers[i].get();
      sim::WormholeNetwork net(f.routing.table(), traffic, 0.05, config);
      net.run();
    });
    return observers;
  };

  const auto serial = runAll(1);
  const auto wide = runAll(4);
  for (std::size_t i = 0; i < kSims; ++i) {
    const obs::PacketTracer& a = *serial[i]->tracer();
    const obs::PacketTracer& b = *wide[i]->tracer();
    ASSERT_GT(a.packets().size(), 0u);
    ASSERT_EQ(a.packets().size(), b.packets().size());
    for (std::size_t p = 0; p < a.packets().size(); ++p) {
      EXPECT_EQ(a.packets()[p].packet, b.packets()[p].packet);
      EXPECT_EQ(a.packets()[p].src, b.packets()[p].src);
      EXPECT_EQ(a.packets()[p].dst, b.packets()[p].dst);
      EXPECT_EQ(a.packets()[p].genCycle, b.packets()[p].genCycle);
    }
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t e = 0; e < a.events().size(); ++e) {
      EXPECT_EQ(a.events()[e].packet, b.events()[e].packet);
      EXPECT_EQ(a.events()[e].cycle, b.events()[e].cycle);
      EXPECT_EQ(a.events()[e].kind, b.events()[e].kind);
      EXPECT_EQ(a.events()[e].fromDir, b.events()[e].fromDir);
      EXPECT_EQ(a.events()[e].toDir, b.events()[e].toDir);
      EXPECT_EQ(a.events()[e].node, b.events()[e].node);
      EXPECT_EQ(a.events()[e].channel, b.events()[e].channel);
      EXPECT_EQ(a.events()[e].value, b.events()[e].value);
    }
  }
}

TEST(ObserverTest, AttachRejectsWrongTopologySize) {
  const Fixture f;
  obs::Observer observer({.metrics = true}, f.topo, &f.ct);
  EXPECT_THROW(observer.attach(f.topo.nodeCount() + 1, f.topo.channelCount()),
               std::invalid_argument);
  EXPECT_THROW(observer.attach(f.topo.nodeCount(), f.topo.channelCount() + 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace downup
