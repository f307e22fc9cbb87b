// Packet tracing: every simulated packet's traced path (the channels of its
// PacketTracer vc_allocated events) must be a legal, connected channel
// walk; with shortest-path routing it must additionally be exactly minimal.
// This ties the simulator back to the routing theory: whatever contention
// does, packets never violate the turn rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/downup_routing.hpp"
#include "obs/observer.hpp"
#include "sim/engine.hpp"
#include "topology/generate.hpp"

namespace downup::sim {
namespace {

using routing::Routing;
using topo::NodeId;
using topo::Topology;
using tree::CoordinatedTree;
using tree::TreePolicy;

struct TraceCase {
  core::Algorithm algorithm;
  double misroute;
};

class TraceLegalityTest : public ::testing::TestWithParam<TraceCase> {};

TEST_P(TraceLegalityTest, EveryTracedPathIsLegal) {
  const auto [algorithm, misroute] = GetParam();
  util::Rng rng(11);
  const Topology topo = topo::randomIrregular(24, {.maxPorts = 4}, rng);
  util::Rng treeRng(12);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  const Routing routing = core::buildRouting(algorithm, topo, ct);

  SimConfig config;
  config.packetLengthFlits = 8;
  config.warmupCycles = 0;
  config.measureCycles = 6000;
  config.misrouteProbability = misroute;
  config.seed = 21;
  obs::Observer observer({.traceSampleEvery = 1}, topo);
  config.observer = &observer;
  const UniformTraffic traffic(topo.nodeCount());
  WormholeNetwork net(routing.table(), traffic, 0.15, config);
  for (int i = 0; i < 6000; ++i) net.step();
  ASSERT_GT(net.packetsEjected(), 50u);

  const auto& perms = routing.permissions();
  std::size_t checked = 0;
  for (PacketId pid = 0; pid < net.packetsGenerated(); ++pid) {
    if (net.packetEjectTime(pid) == WormholeNetwork::kNeverEjected) continue;
    const auto path = observer.tracer()->channelPath(pid);
    ASSERT_FALSE(path.empty());
    // Path structure: starts at src, chains, ends at dst.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const NodeId via = topo.channelDst(path[i]);
      EXPECT_EQ(via, topo.channelSrc(path[i + 1]));
      EXPECT_TRUE(perms.allowed(via, path[i], path[i + 1]))
          << "illegal turn in a traced path";
    }
    if (misroute == 0.0) {
      // Shortest-path mode: traced length equals the legal distance.
      const NodeId src = topo.channelSrc(path.front());
      const NodeId dst = topo.channelDst(path.back());
      EXPECT_EQ(path.size(), routing.table().distance(src, dst));
    }
    ++checked;
  }
  EXPECT_GT(checked, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndModes, TraceLegalityTest,
    ::testing::Values(TraceCase{core::Algorithm::kDownUp, 0.0},
                      TraceCase{core::Algorithm::kDownUp, 0.3},
                      TraceCase{core::Algorithm::kLTurn, 0.0},
                      TraceCase{core::Algorithm::kLeftRight, 0.0},
                      TraceCase{core::Algorithm::kUpDownBfs, 0.0},
                      TraceCase{core::Algorithm::kUpDownBfs, 0.3}));

TEST(Tracing, DisabledByDefault) {
  const Topology topo = topo::ring(4);
  util::Rng rng(1);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
  const Routing routing = routing::buildUpDown(topo, ct);
  EXPECT_EQ(obs::Observer(obs::ObsOptions{}, topo).tracer(), nullptr);

  // Sampling 1-in-2: only the even packet ids record a path.
  obs::Observer observer({.traceSampleEvery = 2}, topo);
  SimConfig config;
  config.packetLengthFlits = 4;
  config.warmupCycles = 0;
  config.observer = &observer;
  const UniformTraffic traffic(topo.nodeCount());
  WormholeNetwork net(routing.table(), traffic, 0.0, config);
  const PacketId sampled = net.injectPacket(0, 2);
  const PacketId unsampled = net.injectPacket(1, 3);
  for (int i = 0; i < 200; ++i) net.step();
  EXPECT_NE(net.packetEjectTime(unsampled), WormholeNetwork::kNeverEjected);
  EXPECT_EQ(observer.tracer()->channelPath(sampled).size(),
            routing.table().distance(0, 2));
  EXPECT_TRUE(observer.tracer()->channelPath(unsampled).empty());
}

TEST(Tracing, InFlightPathGrowsIntoTheEjectedPath) {
  // A packet's path is readable while it is still in the network: each
  // cycle's channelPath extends the previous one, and the walk it ends as
  // is the full minimal route.
  const Topology topo = topo::ring(6);
  util::Rng rng(1);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
  const Routing routing = routing::buildUpDown(topo, ct);
  obs::Observer observer({.traceSampleEvery = 1}, topo);
  SimConfig config;
  config.packetLengthFlits = 4;
  config.warmupCycles = 0;
  config.observer = &observer;
  const UniformTraffic traffic(topo.nodeCount());
  WormholeNetwork net(routing.table(), traffic, 0.0, config);
  const PacketId pid = net.injectPacket(0, 3);
  const std::size_t hops = routing.table().distance(0, 3);
  ASSERT_GE(hops, 2u);

  std::vector<std::uint32_t> previous;
  std::size_t inFlightLengths = 0;
  for (int i = 0; i < 200; ++i) {
    net.step();
    const auto path = observer.tracer()->channelPath(pid);
    ASSERT_GE(path.size(), previous.size());
    EXPECT_TRUE(std::equal(previous.begin(), previous.end(), path.begin()))
        << "an in-flight path was rewritten at cycle " << i;
    const bool ejected =
        net.packetEjectTime(pid) != WormholeNetwork::kNeverEjected;
    if (!ejected && path.size() > previous.size() && path.size() < hops) {
      ++inFlightLengths;
    }
    previous = path;
  }
  ASSERT_NE(net.packetEjectTime(pid), WormholeNetwork::kNeverEjected);
  // Some partial walk was visible before the packet reached its destination.
  EXPECT_GT(inFlightLengths, 0u);
  ASSERT_EQ(previous.size(), hops);
  EXPECT_EQ(topo.channelSrc(previous.front()), 0u);
  EXPECT_EQ(topo.channelDst(previous.back()), 3u);
}

TEST(LatencyBreakdown, QueueingPlusNetworkEqualsTotal) {
  util::Rng rng(5);
  const Topology topo = topo::randomIrregular(16, {.maxPorts = 4}, rng);
  util::Rng treeRng(6);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  const Routing routing = core::buildDownUp(topo, ct);
  SimConfig config;
  config.packetLengthFlits = 16;
  config.warmupCycles = 500;
  config.measureCycles = 5000;
  const UniformTraffic traffic(topo.nodeCount());
  const RunStats stats = simulate(routing.table(), traffic, 0.2, config);
  EXPECT_GT(stats.avgQueueingDelay, 0.0);
  EXPECT_GT(stats.avgNetworkLatency, 16.0);  // at least serialization time
  EXPECT_NEAR(stats.avgQueueingDelay + stats.avgNetworkLatency,
              stats.avgLatency, 1e-9);
}

TEST(BurstTraffic, SameMeanLoadButWorseTails) {
  util::Rng rng(7);
  const Topology topo = topo::randomIrregular(16, {.maxPorts = 4}, rng);
  util::Rng treeRng(8);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  const Routing routing = core::buildDownUp(topo, ct);
  SimConfig config;
  config.packetLengthFlits = 16;
  config.warmupCycles = 2000;
  config.measureCycles = 30000;
  config.seed = 9;
  const UniformTraffic traffic(topo.nodeCount());
  const double load = 0.1;

  const RunStats smooth = simulate(routing.table(), traffic, load, config);
  config.burstFactor = 8.0;
  config.burstOnMeanCycles = 300;
  const RunStats bursty = simulate(routing.table(), traffic, load, config);

  // Mean accepted load stays in the same ballpark...
  EXPECT_NEAR(bursty.acceptedFlitsPerNodePerCycle,
              smooth.acceptedFlitsPerNodePerCycle, load * 0.35);
  // ...but burst queueing inflates latency and its tail.
  EXPECT_GT(bursty.avgLatency, smooth.avgLatency);
  EXPECT_GT(bursty.p99Latency, smooth.p99Latency);
}

TEST(BurstTraffic, FactorOneIsPlainBernoulli) {
  const Topology topo = topo::ring(6);
  util::Rng rng(1);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
  const Routing routing = routing::buildUpDown(topo, ct);
  SimConfig a;
  a.packetLengthFlits = 8;
  a.warmupCycles = 100;
  a.measureCycles = 3000;
  SimConfig b = a;
  b.burstFactor = 1.0;  // explicit, same as default
  const UniformTraffic traffic(topo.nodeCount());
  const RunStats statsA = simulate(routing.table(), traffic, 0.1, a);
  const RunStats statsB = simulate(routing.table(), traffic, 0.1, b);
  EXPECT_EQ(statsA.packetsGenerated, statsB.packetsGenerated);
  EXPECT_DOUBLE_EQ(statsA.avgLatency, statsB.avgLatency);
}

TEST(BurstTraffic, ValidatesParameters) {
  SimConfig config;
  config.burstFactor = 0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = SimConfig{};
  config.burstOnMeanCycles = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = SimConfig{};
  config.misrouteProbability = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace downup::sim
