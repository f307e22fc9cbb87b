// Switch arbitration and bandwidth-limit behaviour: one flit per physical
// channel per cycle, one per ejection port per cycle, round-robin fairness
// between competing flows.
#include <gtest/gtest.h>

#include "routing/updown.hpp"
#include "sim/engine.hpp"
#include "topology/generate.hpp"

namespace downup::sim {
namespace {

using routing::Routing;
using topo::NodeId;
using topo::Topology;
using tree::CoordinatedTree;
using tree::TreePolicy;

Routing updownOn(const Topology& topo) {
  util::Rng rng(1);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
  return routing::buildUpDown(topo, ct);
}

SimConfig baseConfig() {
  SimConfig config;
  config.packetLengthFlits = 16;
  config.warmupCycles = 0;
  config.measureCycles = 100000;
  return config;
}

TEST(Arbitration, EjectionPortSerializesTwoArrivals) {
  // Star: 1 and 2 both send a 16-flit packet to 3.  Both routes share only
  // the ejection port at 3 after the hub, so the second packet finishes
  // roughly one serialization time after the first.
  const Topology topo = topo::star(4);
  const Routing routing = updownOn(topo);
  const UniformTraffic traffic(topo.nodeCount());
  WormholeNetwork net(routing.table(), traffic, 0.0, baseConfig());
  const PacketId a = net.injectPacket(1, 3);
  const PacketId b = net.injectPacket(2, 3);
  for (int i = 0; i < 2000 && net.packetsEjected() < 2; ++i) net.step();
  ASSERT_EQ(net.packetsEjected(), 2u);
  const auto ejectA = net.packetEjectTime(a);
  const auto ejectB = net.packetEjectTime(b);
  const auto gap = ejectA > ejectB ? ejectA - ejectB : ejectB - ejectA;
  // Wormhole: the loser waits for the winner's whole worm to pass the hub
  // output channel, so the gap is at least one packet time.
  EXPECT_GE(gap, 16u);
  EXPECT_LE(gap, 48u);
}

TEST(Arbitration, SharedChannelBandwidthIsSplitFairly) {
  // Line 0-1-2: nodes 0 and 1 both flood node 2; the link 1->2 is the
  // shared bottleneck.  Over a long window both flows should get a
  // comparable share (round-robin output arbitration).
  const Topology topo = topo::line(3);
  const Routing routing = updownOn(topo);
  const UniformTraffic traffic(topo.nodeCount());
  SimConfig config = baseConfig();
  WormholeNetwork net(routing.table(), traffic, 0.0, config);

  // Keep both source queues saturated manually.
  std::uint64_t ejectedFrom0 = 0;
  std::uint64_t ejectedFrom1 = 0;
  std::vector<PacketId> from0;
  std::vector<PacketId> from1;
  for (int round = 0; round < 200; ++round) {
    from0.push_back(net.injectPacket(0, 2));
    from1.push_back(net.injectPacket(1, 2));
  }
  for (int i = 0; i < 9000; ++i) net.step();
  for (PacketId pid : from0) {
    if (net.packetEjectTime(pid) != WormholeNetwork::kNeverEjected) {
      ++ejectedFrom0;
    }
  }
  for (PacketId pid : from1) {
    if (net.packetEjectTime(pid) != WormholeNetwork::kNeverEjected) {
      ++ejectedFrom1;
    }
  }
  ASSERT_GT(ejectedFrom0 + ejectedFrom1, 100u);
  const double share = static_cast<double>(ejectedFrom0) /
                       static_cast<double>(ejectedFrom0 + ejectedFrom1);
  EXPECT_GT(share, 0.35);
  EXPECT_LT(share, 0.65);
}

TEST(Arbitration, ChannelNeverExceedsOneFlitPerCycle) {
  util::Rng rng(7);
  const Topology topo = topo::randomIrregular(16, {.maxPorts = 4}, rng);
  const Routing routing = updownOn(topo);
  const UniformTraffic traffic(topo.nodeCount());
  SimConfig config = baseConfig();
  config.warmupCycles = 100;
  config.measureCycles = 4000;
  config.vcCount = 4;  // VCs share the physical link: still <= 1 flit/clk
  const RunStats stats = simulate(routing.table(), traffic, 0.9, config);
  for (double util : stats.channelUtilization) {
    EXPECT_LE(util, 1.0 + 1e-12);
  }
}

}  // namespace
}  // namespace downup::sim
