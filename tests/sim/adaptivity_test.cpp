// Deterministic-selection mode: with adaptiveSelection off every packet of
// a given (source, destination) pair follows the same fixed path, and the
// network remains deadlock-free and live.
#include <gtest/gtest.h>

#include <map>

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

TEST(DeterministicSelection, SamePairAlwaysTakesTheSamePath) {
  util::Rng rng(4);
  const Topology topo = topo::randomIrregular(24, {.maxPorts = 4}, rng);
  util::Rng treeRng(5);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  const Routing routing = core::buildDownUp(topo, ct);

  SimConfig config;
  config.packetLengthFlits = 8;
  config.warmupCycles = 0;
  config.measureCycles = 100000;
  config.adaptiveSelection = false;
  config.seed = 6;
  obs::Observer observer({.traceSampleEvery = 1}, topo);
  config.observer = &observer;
  const UniformTraffic traffic(topo.nodeCount());
  WormholeNetwork net(routing.table(), traffic, 0.1, config);
  for (int i = 0; i < 8000; ++i) net.step();
  ASSERT_GT(net.packetsEjected(), 100u);

  std::map<std::pair<NodeId, NodeId>, std::vector<topo::ChannelId>> seen;
  for (PacketId pid = 0; pid < net.packetsGenerated(); ++pid) {
    if (net.packetEjectTime(pid) == WormholeNetwork::kNeverEjected) continue;
    const auto path = observer.tracer()->channelPath(pid);
    ASSERT_FALSE(path.empty());
    const auto key = std::pair(topo.channelSrc(path.front()),
                               topo.channelDst(path.back()));
    const auto [it, inserted] = seen.emplace(key, path);
    if (!inserted) {
      EXPECT_EQ(it->second, path)
          << "pair " << key.first << "->" << key.second
          << " took two different paths in deterministic mode";
    }
  }
  EXPECT_GT(seen.size(), 30u);
}

TEST(DeterministicSelection, StaysLiveUnderLoad) {
  util::Rng rng(8);
  const Topology topo = topo::randomIrregular(24, {.maxPorts = 4}, rng);
  util::Rng treeRng(9);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  for (core::Algorithm algorithm :
       {core::Algorithm::kLTurn, core::Algorithm::kDownUp}) {
    const Routing routing = core::buildRouting(algorithm, topo, ct);
    SimConfig config;
    config.packetLengthFlits = 32;
    config.warmupCycles = 1000;
    config.measureCycles = 8000;
    config.deadlockThresholdCycles = 3000;
    config.adaptiveSelection = false;
    const UniformTraffic traffic(topo.nodeCount());
    const RunStats stats = simulate(routing.table(), traffic, 0.5, config);
    EXPECT_FALSE(stats.deadlocked) << core::toString(algorithm);
    EXPECT_GT(stats.flitsEjectedMeasured, 0u);
  }
}

TEST(DeterministicSelection, AdaptiveNeverLosesToDeterministicBadly) {
  // Not a theorem, but a regression guard: on a congested network adaptive
  // selection should reach at least the deterministic throughput.
  util::Rng rng(10);
  const Topology topo = topo::randomIrregular(32, {.maxPorts = 4}, rng);
  util::Rng treeRng(11);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  const Routing routing = core::buildDownUp(topo, ct);
  SimConfig config;
  config.packetLengthFlits = 32;
  config.warmupCycles = 1000;
  config.measureCycles = 10000;
  config.seed = 12;
  const UniformTraffic traffic(topo.nodeCount());

  config.adaptiveSelection = true;
  const RunStats adaptive = simulate(routing.table(), traffic, 0.6, config);
  config.adaptiveSelection = false;
  const RunStats fixed = simulate(routing.table(), traffic, 0.6, config);
  EXPECT_GE(adaptive.acceptedFlitsPerNodePerCycle,
            fixed.acceptedFlitsPerNodePerCycle * 0.98);
}

}  // namespace
}  // namespace downup::sim
