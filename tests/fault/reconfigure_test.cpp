// Reconfigurator: rebuilding the coordinated tree + DOWN/UP rule on degraded
// topologies — connectivity and deadlock freedom after single link removals,
// partitions and node deaths, and host-numbering equivalence with a routing
// built directly on the degraded graph.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/downup_routing.hpp"
#include "fault/reconfigure.hpp"
#include "routing/routing_table.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/rng.hpp"
#include "util/span_recorder.hpp"

namespace downup::fault {
namespace {

using routing::kNoPath;

topo::Topology makeSan() {
  util::Rng rng(2024);
  return topo::randomIrregular(24, {.maxPorts = 4}, rng);
}

/// Two triangles {0,1,2} and {3,4,5} joined by the bridge link 2-3.
/// Links in insertion order: 0:(0,1) 1:(1,2) 2:(0,2) 3:(3,4) 4:(4,5)
/// 5:(3,5) 6:(2,3).
topo::Topology twoTriangles() {
  topo::Topology topo(6);
  topo.addLink(0, 1);
  topo.addLink(1, 2);
  topo.addLink(0, 2);
  topo.addLink(3, 4);
  topo.addLink(4, 5);
  topo.addLink(3, 5);
  topo.addLink(2, 3);
  return topo;
}

std::vector<std::uint8_t> allAlive(std::size_t count) {
  return std::vector<std::uint8_t>(count, 1);
}

TEST(ReconfiguratorTest, HealthyRebuildMatchesDirectBuild) {
  const topo::Topology topo = makeSan();
  const Reconfigurator reconf(topo);
  const ReconfigOutcome out =
      reconf.rebuild(allAlive(topo.linkCount()), allAlive(topo.nodeCount()));

  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.components, 1u);
  EXPECT_EQ(out.aliveNodes, topo.nodeCount());
  EXPECT_EQ(out.aliveLinks, topo.linkCount());
  EXPECT_EQ(out.unreachablePairs, 0u);
  EXPECT_GT(out.averagePathLength, 0.0);

  // With everything alive the compacted sub-topology is the host topology,
  // so the rebuilt table must match a direct M1 build channel for channel.
  util::Rng treeRng(0);
  const auto ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing direct = core::buildDownUp(topo, ct);
  for (topo::NodeId dst = 0; dst < topo.nodeCount(); ++dst) {
    for (topo::ChannelId c = 0; c < topo.channelCount(); ++c) {
      EXPECT_EQ(out.table->channelSteps(dst, c),
                direct.table().channelSteps(dst, c));
    }
  }
}

TEST(ReconfiguratorTest, EverySingleLinkFailureRebuildsSafely) {
  const topo::Topology topo = makeSan();
  const Reconfigurator reconf(topo);
  const auto nodesUp = allAlive(topo.nodeCount());
  for (topo::LinkId dead = 0; dead < topo.linkCount(); ++dead) {
    auto linksUp = allAlive(topo.linkCount());
    linksUp[dead] = 0;
    const ReconfigOutcome out = reconf.rebuild(linksUp, nodesUp);

    EXPECT_TRUE(out.deadlockFree) << "link " << dead;
    EXPECT_TRUE(out.componentsConnected) << "link " << dead;
    EXPECT_EQ(out.aliveLinks, topo.linkCount() - 1);
    if (out.components == 1) {
      EXPECT_EQ(out.unreachablePairs, 0u) << "link " << dead;
    }
    // The dead link's channels must never be offered: kNoPath steps for
    // every destination and absent from every first-hop candidate row.
    for (topo::NodeId dst = 0; dst < topo.nodeCount(); ++dst) {
      EXPECT_EQ(out.table->channelSteps(dst, 2 * dead), kNoPath);
      EXPECT_EQ(out.table->channelSteps(dst, 2 * dead + 1), kNoPath);
      for (topo::NodeId src = 0; src < topo.nodeCount(); ++src) {
        if (src == dst) continue;
        for (topo::ChannelId c : out.table->firstChannels(src, dst)) {
          EXPECT_NE(topo::Topology::linkOf(c), dead);
        }
      }
    }
  }
}

TEST(ReconfiguratorTest, DegradedRebuildMatchesDirectDegradedBuild) {
  const topo::Topology topo = makeSan();
  const Reconfigurator reconf(topo);

  // Find a link whose removal keeps one component, fail it via the
  // reconfigurator, and cross-check against a routing built directly on a
  // hand-made degraded topology (same node ids, alive links in ascending
  // host order — the reconfigurator's construction order).
  for (topo::LinkId dead = 0; dead < topo.linkCount(); ++dead) {
    auto linksUp = allAlive(topo.linkCount());
    linksUp[dead] = 0;
    const ReconfigOutcome out =
        reconf.rebuild(linksUp, allAlive(topo.nodeCount()));
    if (out.components != 1) continue;

    topo::Topology degraded(topo.nodeCount());
    std::vector<topo::LinkId> subToHost;
    for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
      if (l == dead) continue;
      const auto [a, b] = topo.linkEnds(l);
      degraded.addLink(a, b);
      subToHost.push_back(l);
    }
    util::Rng treeRng(0);
    const auto ct = tree::CoordinatedTree::build(
        degraded, tree::TreePolicy::kM1SmallestFirst, treeRng);
    const routing::Routing direct = core::buildDownUp(degraded, ct);

    for (topo::NodeId src = 0; src < topo.nodeCount(); ++src) {
      for (topo::NodeId dst = 0; dst < topo.nodeCount(); ++dst) {
        EXPECT_EQ(out.table->distance(src, dst),
                  direct.table().distance(src, dst));
      }
    }
    for (topo::NodeId dst = 0; dst < topo.nodeCount(); ++dst) {
      for (topo::ChannelId sub = 0; sub < degraded.channelCount(); ++sub) {
        const topo::ChannelId host = 2 * subToHost[sub >> 1] + (sub & 1);
        EXPECT_EQ(out.table->channelSteps(dst, host),
                  direct.table().channelSteps(dst, sub));
      }
    }
    return;  // one non-bridge link exercised is enough
  }
  FAIL() << "every link of the 24-switch SAN is a bridge?";
}

TEST(ReconfiguratorTest, BridgeFailureSplitsIntoRoutedComponents) {
  const topo::Topology topo = twoTriangles();
  const Reconfigurator reconf(topo);
  auto linksUp = allAlive(topo.linkCount());
  linksUp[6] = 0;  // the 2-3 bridge
  const ReconfigOutcome out = reconf.rebuild(linksUp, allAlive(6));

  EXPECT_TRUE(out.ok());  // each component is connected and deadlock-free
  EXPECT_EQ(out.components, 2u);
  EXPECT_EQ(out.aliveNodes, 6u);
  EXPECT_EQ(out.aliveLinks, 6u);
  // All 3*3 ordered pairs across the cut, both directions.
  EXPECT_EQ(out.unreachablePairs, 18u);
  for (topo::NodeId src = 0; src < 6; ++src) {
    for (topo::NodeId dst = 0; dst < 6; ++dst) {
      if (src == dst) continue;
      const bool sameSide = (src < 3) == (dst < 3);
      EXPECT_EQ(out.table->distance(src, dst) != kNoPath, sameSide)
          << src << " -> " << dst;
    }
  }
}

TEST(ReconfiguratorTest, NodeDeathKillsIncidentLinksAndItsRoutes) {
  const topo::Topology topo = twoTriangles();
  const Reconfigurator reconf(topo);
  auto nodesUp = allAlive(topo.nodeCount());
  nodesUp[3] = 0;  // takes links 3-4, 3-5 and the bridge 2-3 with it
  const ReconfigOutcome out = reconf.rebuild(allAlive(topo.linkCount()),
                                             nodesUp);

  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.components, 2u);  // {0,1,2} and {4,5}
  EXPECT_EQ(out.aliveNodes, 5u);
  EXPECT_EQ(out.aliveLinks, 4u);
  // 5*4 ordered alive pairs minus 3*2 within the triangle and 2*1 within
  // the pair.
  EXPECT_EQ(out.unreachablePairs, 12u);
  for (topo::NodeId v = 0; v < 6; ++v) {
    if (v == 3) continue;
    EXPECT_EQ(out.table->distance(v, 3), kNoPath);
    EXPECT_EQ(out.table->distance(3, v), kNoPath);
  }
  EXPECT_NE(out.table->distance(4, 5), kNoPath);
  EXPECT_NE(out.table->distance(0, 2), kNoPath);
}

TEST(ReconfiguratorTest, IsolatedSurvivorCountsAsComponent) {
  // Killing nodes 4 and 5 leaves node 3 alive but linkless: a singleton
  // component with no routing, unreachable from the triangle.
  const topo::Topology topo = twoTriangles();
  const Reconfigurator reconf(topo);
  auto nodesUp = allAlive(topo.nodeCount());
  nodesUp[4] = 0;
  nodesUp[5] = 0;
  auto linksUp = allAlive(topo.linkCount());
  linksUp[6] = 0;  // bridge also down: node 3 fully cut off
  const ReconfigOutcome out = reconf.rebuild(linksUp, nodesUp);

  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.components, 2u);  // {0,1,2} and the singleton {3}
  EXPECT_EQ(out.aliveNodes, 4u);
  EXPECT_EQ(out.aliveLinks, 3u);
  EXPECT_EQ(out.unreachablePairs, 6u);  // 3 triangle nodes x {3}, both ways
  for (topo::NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(out.table->distance(v, 3), kNoPath);
    EXPECT_EQ(out.table->distance(3, v), kNoPath);
  }
}

TEST(ReconfiguratorTest, SplitFabricBuildsOneHostTable) {
  // CandidateGolden.MultiComponentRebuild's split: every link leaving the
  // radius-1 ball around switch 0 of a 48-switch SAN dies.  Each component
  // gets its own tree and turn rule, but the epoch has exactly one table:
  // the masked build of the merged host rule.
  util::Rng rng(2026);
  const topo::Topology topo = topo::randomIrregular(48, {.maxPorts = 4}, rng);
  std::vector<std::uint8_t> inBall(topo.nodeCount(), 0);
  inBall[0] = 1;
  for (const topo::NodeId v : topo.neighbors(0)) inBall[v] = 1;
  auto linksUp = allAlive(topo.linkCount());
  std::vector<std::uint64_t> aliveMask((topo.channelCount() + 63) / 64, 0);
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    const auto [a, b] = topo.linkEnds(l);
    if (inBall[a] != inBall[b]) linksUp[l] = 0;
    if (linksUp[l] == 0) continue;
    for (const topo::ChannelId c : {2 * l, 2 * l + 1}) {
      aliveMask[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
  }

  util::SpanRecorder spans;
  Reconfigurator reconf(topo);
  reconf.setSpans(&spans);
  const ReconfigOutcome out =
      reconf.rebuild(linksUp, allAlive(topo.nodeCount()));
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out.components, 2u);

  std::size_t tableBuilds = 0;
  for (const auto& s : spans.snapshot()) {
    tableBuilds += std::strcmp(s.name, "table_build") == 0 ? 1 : 0;
  }
  EXPECT_EQ(tableBuilds, 1u);
  EXPECT_TRUE(out.table->identicalTo(
      routing::RoutingTable::build(*out.perms, nullptr, aliveMask)));
  // Pinned from per-component tables summed, so the one host pass must
  // agree with them: a 5-switch ball and a 43-switch rest, 2 x 5 x 43
  // ordered pairs across the cut, and the mean is the integer hop sum over
  // the 5 x 4 + 43 x 42 pairs within a side.
  EXPECT_EQ(out.unreachablePairs, 430u);
  EXPECT_EQ(out.averagePathLength, 6593.0 / 1826.0);
}

}  // namespace
}  // namespace downup::fault
