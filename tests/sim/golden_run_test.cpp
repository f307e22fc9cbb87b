// Differential test against a recorded golden run of the pre-layering
// engine (the monolithic full-scan WormholeNetwork).
//
// The layered active-set engine is required to be a pure reorganisation:
// same arbitration winners, same RNG draw order, same RunStats bit for bit
// on a fixed seed.  These constants were recorded from the seed engine on a
// 24-switch irregular network under every routing mode (adaptive with 1 and
// 2 VCs, escape-adaptive, deterministic, misrouting, bursty traffic), and
// every comparison below is exact — EXPECT_EQ on counters, EXPECT_DOUBLE_EQ
// on derived doubles, and an FNV-1a hash over the raw channel-utilization
// bytes.  Any divergence in scheduling, arbitration or accounting shows up
// here as a hard failure, not a tolerance drift.
#include <cstdint>
#include <gtest/gtest.h>

#include "core/downup_routing.hpp"
#include "fault/schedule.hpp"
#include "sim/engine.hpp"
#include "topology/generate.hpp"

namespace downup {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t statsHash(const sim::RunStats& s) {
  std::uint64_t h = fnv1a(s.channelUtilization.data(),
                          s.channelUtilization.size() * sizeof(double));
  h ^= fnv1a(&s.avgLatency, sizeof(double));
  h ^= fnv1a(&s.avgQueueingDelay, sizeof(double));
  return h;
}

struct Golden {
  std::uint64_t packetsGenerated;
  std::uint64_t packetsEjectedMeasured;
  std::uint64_t flitsEjectedMeasured;
  double avgLatency;
  double p50Latency;
  double p99Latency;
  double avgQueueingDelay;
  double accepted;
  std::uint64_t utilHash;
};

class GoldenRunTest : public ::testing::Test {
 protected:
  GoldenRunTest() : topo_(makeTopology()), routing_(makeRouting(topo_)) {}

  static topo::Topology makeTopology() {
    util::Rng topoRng(2024);
    return topo::randomIrregular(24, {.maxPorts = 4}, topoRng);
  }

  static routing::Routing makeRouting(const topo::Topology& topo) {
    util::Rng treeRng(7);
    const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
    return core::buildDownUp(topo, ct);
  }

  static sim::SimConfig baseConfig() {
    sim::SimConfig config;
    config.packetLengthFlits = 16;
    config.warmupCycles = 500;
    config.measureCycles = 3000;
    config.seed = 12345;
    return config;
  }

  void expectGolden(const sim::SimConfig& config, double load,
                    const Golden& golden) {
    const sim::UniformTraffic traffic(topo_.nodeCount());
    const sim::RunStats stats =
        sim::simulate(routing_.table(), traffic, load, config);
    EXPECT_EQ(stats.cycles, 3500u);
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_EQ(stats.packetsGenerated, golden.packetsGenerated);
    EXPECT_EQ(stats.packetsEjectedMeasured, golden.packetsEjectedMeasured);
    EXPECT_EQ(stats.flitsEjectedMeasured, golden.flitsEjectedMeasured);
    EXPECT_DOUBLE_EQ(stats.avgLatency, golden.avgLatency);
    EXPECT_DOUBLE_EQ(stats.p50Latency, golden.p50Latency);
    EXPECT_DOUBLE_EQ(stats.p99Latency, golden.p99Latency);
    EXPECT_DOUBLE_EQ(stats.avgQueueingDelay, golden.avgQueueingDelay);
    EXPECT_DOUBLE_EQ(stats.acceptedFlitsPerNodePerCycle, golden.accepted);
    EXPECT_EQ(stats.channelUtilization.size(), 96u);
    EXPECT_EQ(statsHash(stats), golden.utilHash);
    // No golden run injects faults, so the fault accounting must stay at
    // its zero defaults whether or not a schedule object is attached.
    EXPECT_EQ(stats.packetsDroppedTotal(), 0u);
    EXPECT_EQ(stats.reconfigurations, 0u);
    EXPECT_EQ(stats.reconfigCyclesTotal, 0u);
    EXPECT_TRUE(stats.reconfigRoutingVerified);
  }

  topo::Topology topo_;
  routing::Routing routing_;
};

TEST_F(GoldenRunTest, AdaptiveOneVc) {
  expectGolden(baseConfig(), 0.15,
               {799, 687, 11033, 31.842794759825328, 27.0, 88.0,
                5.3100436681222707, 0.1532361111111111, 0x7a2251f8e57ec5d0ULL});
}

TEST_F(GoldenRunTest, AdaptiveTwoVcs) {
  sim::SimConfig config = baseConfig();
  config.vcCount = 2;
  expectGolden(config, 0.15,
               {800, 689, 11066, 32.374455732946302, 29.0, 71.0,
                3.8040638606676342, 0.15369444444444444,
                0xe5290569aa583a79ULL});
}

TEST_F(GoldenRunTest, EscapeAdaptive) {
  sim::SimConfig config = baseConfig();
  config.vcCount = 2;
  config.escapeAdaptiveRouting = true;
  expectGolden(config, 0.15,
               {803, 690, 11080, 31.194202898550724, 27.0, 68.0,
                3.0362318840579712, 0.15388888888888888,
                0xf1fc63b2bde42f36ULL});
}

TEST_F(GoldenRunTest, Deterministic) {
  sim::SimConfig config = baseConfig();
  config.adaptiveSelection = false;
  expectGolden(config, 0.10,
               {546, 475, 7668, 28.89263157894737, 26.0, 66.259999999999991,
                3.3705263157894736, 0.1065, 0x156c0ae902ba9546ULL});
}

// Misrouting draws RNG on every claim attempt, so this pin also covers the
// engine path where blocked-claimant parking must stay disabled.
TEST_F(GoldenRunTest, Misroute) {
  sim::SimConfig config = baseConfig();
  config.misrouteProbability = 0.2;
  expectGolden(config, 0.10,
               {548, 477, 7663, 28.989517819706499, 26.0, 60.0,
                2.6981132075471699, 0.10643055555555556,
                0x4dd7e42fb35310ee});
}

// An attached-but-empty fault schedule must be bit-for-bit inert: the fault
// hooks in the cycle loop may never draw RNG or perturb scheduling until an
// event actually fires, so the stats match the no-schedule golden exactly.
TEST_F(GoldenRunTest, EmptyFaultScheduleIsInert) {
  const fault::FaultSchedule empty;
  sim::SimConfig config = baseConfig();
  config.faultSchedule = &empty;
  expectGolden(config, 0.15,
               {799, 687, 11033, 31.842794759825328, 27.0, 88.0,
                5.3100436681222707, 0.1532361111111111, 0x7a2251f8e57ec5d0ULL});
}

TEST_F(GoldenRunTest, BurstyTraffic) {
  sim::SimConfig config = baseConfig();
  config.burstFactor = 4.0;
  expectGolden(config, 0.10,
               {488, 443, 7140, 33.778781038374717, 29.0, 69.159999999999968,
                8.516930022573364, 0.099166666666666667,
                0x040b6564f46b5752ULL});
}

}  // namespace
}  // namespace downup
