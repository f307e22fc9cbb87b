#include "core/downup_routing.hpp"

#include <gtest/gtest.h>

#include "routing/cdg.hpp"
#include "routing/verify.hpp"
#include "topology/generate.hpp"

namespace downup::core {
namespace {

using routing::ChannelId;
using routing::Dir;
using routing::NodeId;
using routing::Topology;
using routing::TurnPermissions;
using tree::CoordinatedTree;
using tree::TreePolicy;

/// The 8-node witness of DESIGN.md §4.4.  Node roles: 0 = root,
/// level 1 = {1 (g), 2 (c), 3 (d), 4 (f), 5 (a)}, level 2 = {6 (e), 7 (b)}.
/// Under the M3 tree the six cross channels
/// 5->7 (RD), 7->2 (LU), 2->3 (L), 3->6 (RD), 6->4 (LU), 4->5 (L)
/// form a turn cycle consisting entirely of turns the paper allows.
Topology counterexampleTopology() {
  Topology topo(8);
  for (NodeId v = 1; v <= 5; ++v) topo.addLink(0, v);  // root fan-out
  topo.addLink(1, 7);                                  // tree: g - b
  topo.addLink(2, 6);                                  // tree: c - e
  topo.addLink(5, 7);                                  // cross: a - b
  topo.addLink(2, 7);                                  // cross: b - c
  topo.addLink(2, 3);                                  // cross: c - d
  topo.addLink(3, 6);                                  // cross: d - e
  topo.addLink(4, 6);                                  // cross: e - f
  topo.addLink(4, 5);                                  // cross: f - a
  return topo;
}

CoordinatedTree counterexampleTree(const Topology& topo) {
  util::Rng rng(1);
  return CoordinatedTree::build(topo, TreePolicy::kM3LargestFirst, rng);
}

TEST(DownUpCounterexample, TreeShapeIsAsConstructed) {
  const Topology topo = counterexampleTopology();
  const CoordinatedTree ct = counterexampleTree(topo);
  EXPECT_EQ(ct.parent(7), 1u);
  EXPECT_EQ(ct.parent(6), 2u);
  for (NodeId v = 1; v <= 5; ++v) EXPECT_EQ(ct.parent(v), 0u);
  // M3 preorder: 0, 5, 4, 3, 2, 6, 1, 7.
  EXPECT_EQ(ct.x(0), 0u);
  EXPECT_EQ(ct.x(5), 1u);
  EXPECT_EQ(ct.x(4), 2u);
  EXPECT_EQ(ct.x(3), 3u);
  EXPECT_EQ(ct.x(2), 4u);
  EXPECT_EQ(ct.x(6), 5u);
  EXPECT_EQ(ct.x(1), 6u);
  EXPECT_EQ(ct.x(7), 7u);
}

TEST(DownUpCounterexample, TheSixChannelsHaveTheClaimedDirections) {
  const Topology topo = counterexampleTopology();
  const CoordinatedTree ct = counterexampleTree(topo);
  const routing::DirectionMap dirs = routing::classifyDownUp(topo, ct);
  EXPECT_EQ(dirs[topo.channel(5, 7)], Dir::kRdCross);
  EXPECT_EQ(dirs[topo.channel(7, 2)], Dir::kLuCross);
  EXPECT_EQ(dirs[topo.channel(2, 3)], Dir::kLCross);
  EXPECT_EQ(dirs[topo.channel(3, 6)], Dir::kRdCross);
  EXPECT_EQ(dirs[topo.channel(6, 4)], Dir::kLuCross);
  EXPECT_EQ(dirs[topo.channel(4, 5)], Dir::kLCross);
}

TEST(DownUpCounterexample, PublishedTurnSetAdmitsATurnCycle) {
  // Reproduction finding: the paper's Phase-2 prohibited-turn set PT is not
  // sufficient for deadlock freedom (DESIGN.md §4.4).
  const Topology topo = counterexampleTopology();
  const CoordinatedTree ct = counterexampleTree(topo);
  TurnPermissions perms(topo, routing::classifyDownUp(topo, ct),
                        downUpTurnSet());
  const routing::CdgResult result = routing::checkChannelDependencies(perms);
  EXPECT_FALSE(result.acyclic)
      << "expected the published PT to admit a turn cycle here";

  // And each turn on the constructed 6-channel cycle really is allowed.
  const ChannelId cyc[6] = {topo.channel(5, 7), topo.channel(7, 2),
                            topo.channel(2, 3), topo.channel(3, 6),
                            topo.channel(6, 4), topo.channel(4, 5)};
  for (int i = 0; i < 6; ++i) {
    const ChannelId in = cyc[i];
    const ChannelId out = cyc[(i + 1) % 6];
    EXPECT_TRUE(perms.allowed(topo.channelDst(in), in, out))
        << "turn " << i << " unexpectedly prohibited";
  }
}

TEST(DownUpCounterexample, RepairRestoresDeadlockFreedom) {
  const Topology topo = counterexampleTopology();
  const CoordinatedTree ct = counterexampleTree(topo);
  TurnPermissions perms(topo, routing::classifyDownUp(topo, ct),
                        downUpTurnSet());
  const RepairStats stats = repairTurnCycles(perms);
  EXPECT_GE(stats.blockedTurns, 1u);
  EXPECT_TRUE(routing::checkChannelDependencies(perms).acyclic);
  // Blocks target only turns entering up-cross runs.
  for (NodeId v = 0; v < topo.nodeCount(); ++v) {
    for (std::size_t i = 0; i < routing::kDirCount; ++i) {
      for (std::size_t j = 0; j < routing::kDirCount; ++j) {
        const Dir d1 = static_cast<Dir>(i);
        const Dir d2 = static_cast<Dir>(j);
        if (perms.isBlockedAt(v, d1, d2)) {
          EXPECT_TRUE(routing::isUpCross(d2));
          EXPECT_FALSE(routing::isUpCross(d1));
        }
      }
    }
  }
}

TEST(DownUpCounterexample, FullBuilderIsSoundAndLive) {
  const Topology topo = counterexampleTopology();
  const CoordinatedTree ct = counterexampleTree(topo);
  const routing::Routing routing = buildDownUp(topo, ct);
  const routing::VerifyReport report = routing::verifyRouting(routing);
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(RepairPass, NoOpOnAcyclicPermissions) {
  const Topology topo = topo::paperFigure1();
  util::Rng rng(1);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
  TurnPermissions perms(topo, routing::classifyDownUp(topo, ct),
                        downUpTurnSet());
  if (!routing::checkChannelDependencies(perms).acyclic) {
    GTEST_SKIP() << "figure-1 CG unexpectedly cyclic";
  }
  const RepairStats stats = repairTurnCycles(perms);
  EXPECT_EQ(stats.blockedTurns, 0u);
}

TEST(BuildDownUp, NamesReflectOptions) {
  const Topology topo = topo::paperFigure1();
  util::Rng rng(1);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
  EXPECT_EQ(buildDownUp(topo, ct).name(), "downup");
  EXPECT_EQ(buildDownUp(topo, ct, {.releaseRedundant = false}).name(),
            "downup-norelease");
}

TEST(BuildDownUp, ReleaseOnlyAddsAdaptivity) {
  util::Rng rng(3);
  const Topology topo = topo::randomIrregular(48, {.maxPorts = 4}, rng);
  util::Rng treeRng(4);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing with = buildDownUp(topo, ct);
  const routing::Routing without =
      buildDownUp(topo, ct, {.releaseRedundant = false});
  // Released turns can only shorten or keep legal distances.
  double sumWith = 0.0;
  double sumWithout = 0.0;
  for (NodeId s = 0; s < topo.nodeCount(); ++s) {
    for (NodeId d = 0; d < topo.nodeCount(); ++d) {
      if (s == d) continue;
      EXPECT_LE(with.table().distance(s, d), without.table().distance(s, d));
      sumWith += with.table().distance(s, d);
      sumWithout += without.table().distance(s, d);
    }
  }
  EXPECT_LE(sumWith, sumWithout);
}

// Repair leaves the unmasked dependency graph acyclic, so a repaired rule
// covers every channel (and no bit past the last); the paper's rule as
// written is never checked and covers none.
TEST(BuildDownUp, RepairedRuleCoversEveryChannel) {
  util::Rng rng(5);
  const Topology topo = topo::randomIrregular(40, {.maxPorts = 4}, rng);
  util::Rng treeRng(6);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  ASSERT_NE(topo.channelCount() % 64, 0u);
  const TurnPermissions repaired = buildDownUpRule(topo, ct);
  for (ChannelId c = 0; c < topo.channelCount(); ++c) {
    EXPECT_TRUE(repaired.covers(c));
  }
  EXPECT_FALSE(repaired.covers(topo.channelCount()));
  EXPECT_TRUE(buildDownUpRule(topo, ct, {.repairCycles = false})
                  .cover()
                  .empty());
}

TEST(AlgorithmDispatcher, BuildsEveryAlgorithm) {
  util::Rng rng(7);
  const Topology topo = topo::randomIrregular(24, {.maxPorts = 4}, rng);
  util::Rng treeRng(8);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  for (Algorithm algorithm : kAllAlgorithms) {
    const routing::Routing routing = buildRouting(algorithm, topo, ct);
    EXPECT_EQ(routing.name(), toString(algorithm));
    const routing::VerifyReport report = routing::verifyRouting(routing);
    EXPECT_TRUE(report.ok())
        << toString(algorithm) << ": " << report.describe();
  }
}

}  // namespace
}  // namespace downup::core
