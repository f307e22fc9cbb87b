#include "routing/path_analysis.hpp"

#include <gtest/gtest.h>

#include "core/downup_routing.hpp"
#include "routing/updown.hpp"
#include "topology/generate.hpp"

namespace downup::routing {
namespace {

using tree::CoordinatedTree;
using tree::TreePolicy;

Routing permissiveOn(const Topology& topo) {
  util::Rng rng(1);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
  TurnPermissions perms(topo, classifyUpDown(topo, ct),
                        TurnSet::allAllowed());
  return Routing("permissive", std::move(perms));
}

TEST(PathAnalysis, LineLoadsAreExact) {
  // Line 0-1-2-3: every pair has exactly one path.  Channel 1->2 carries
  // the pairs (0,2), (0,3), (1,2), (1,3): expected load 4.
  const Topology topo = topo::line(4);
  const Routing routing = permissiveOn(topo);
  const PathAnalysis analysis = analyzePaths(routing.table());

  EXPECT_DOUBLE_EQ(analysis.expectedLoad[topo.channel(1, 2)], 4.0);
  EXPECT_DOUBLE_EQ(analysis.expectedLoad[topo.channel(2, 1)], 4.0);
  EXPECT_DOUBLE_EQ(analysis.expectedLoad[topo.channel(0, 1)], 3.0);
  EXPECT_DOUBLE_EQ(analysis.expectedLoad[topo.channel(3, 2)], 3.0);
  EXPECT_DOUBLE_EQ(analysis.meanPathCount, 1.0);
  EXPECT_DOUBLE_EQ(analysis.maxLoad, 4.0);
}

TEST(PathAnalysis, TotalLoadEqualsSumOfPathLengths) {
  // Conservation: sum over channels of expected load == sum over ordered
  // pairs of legal distance (each pair contributes one channel-visit per
  // hop, split across paths but summing to its distance).
  util::Rng rng(5);
  const Topology topo = topo::randomIrregular(24, {.maxPorts = 4}, rng);
  util::Rng treeRng(6);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  const Routing routing = core::buildDownUp(topo, ct);
  const PathAnalysis analysis = analyzePaths(routing.table());

  double loadSum = 0.0;
  for (double load : analysis.expectedLoad) loadSum += load;
  double distSum = 0.0;
  for (NodeId s = 0; s < topo.nodeCount(); ++s) {
    for (NodeId d = 0; d < topo.nodeCount(); ++d) {
      if (s != d) distSum += routing.table().distance(s, d);
    }
  }
  EXPECT_NEAR(loadSum, distSum, 1e-6);
}

TEST(PathAnalysis, RingPathCounts) {
  // 4-ring with all turns allowed: opposite nodes have 2 minimal paths,
  // neighbors 1.
  const Topology topo = topo::ring(4);
  const Routing routing = permissiveOn(topo);
  const PathAnalysis analysis = analyzePaths(routing.table());
  const auto count = [&](NodeId s, NodeId d) {
    return analysis.pathCount[s * 4 + d];
  };
  EXPECT_DOUBLE_EQ(count(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(count(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(count(1, 3), 2.0);
  EXPECT_DOUBLE_EQ(count(3, 2), 1.0);
  // Channel 0->1 carries (0,1) fully plus half of each opposite pair that
  // can route through it: 0.5 of (0,2) and 0.5 of (3,1) = 2.0 total.
  EXPECT_DOUBLE_EQ(analysis.expectedLoad[topo.channel(0, 1)], 2.0);
}

TEST(PathAnalysis, MeshPathCountsAreBinomial) {
  // In a mesh with all turns allowed, (0,0) -> (2,2) has C(4,2) = 6 minimal
  // paths.
  const Topology topo = topo::mesh(3, 3);
  const Routing routing = permissiveOn(topo);
  const PathAnalysis analysis = analyzePaths(routing.table());
  EXPECT_DOUBLE_EQ(analysis.pathCount[0 * 9 + 8], 6.0);
  EXPECT_DOUBLE_EQ(analysis.pathCount[0 * 9 + 4], 2.0);
}

TEST(PathAnalysis, TurnRestrictionsReducePathCounts) {
  util::Rng rng(9);
  const Topology topo = topo::randomIrregular(32, {.maxPorts = 4}, rng);
  util::Rng treeRng(10);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  const Routing restricted = core::buildDownUp(topo, ct);
  const Routing permissive = permissiveOn(topo);
  const PathAnalysis a = analyzePaths(restricted.table());
  const PathAnalysis b = analyzePaths(permissive.table());
  EXPECT_LE(a.meanPathCount, b.meanPathCount);
}

TEST(AverageAdaptivity, SingleChoiceOnALine) {
  const Topology topo = topo::line(5);
  const Routing routing = permissiveOn(topo);
  EXPECT_DOUBLE_EQ(averageAdaptivity(routing.table()), 1.0);
}

TEST(AverageAdaptivity, TwoChoicesForOppositeRingPairs) {
  const Topology topo = topo::ring(4);
  const Routing routing = permissiveOn(topo);
  // Of the 12 ordered pairs, 4 are opposite (2 choices), 8 neighbors (1).
  EXPECT_NEAR(averageAdaptivity(routing.table()), (4 * 2 + 8 * 1) / 12.0,
              1e-12);
}

// Stretch moved here from verify_test: the epoch check no longer pays for a
// topology BFS per source.
TEST(PathStretch, CompleteGraphHasNone) {
  const Topology topo = topo::complete(5);
  util::Rng rng(1);
  const Routing routing = buildUpDown(
      topo, CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng));
  const Stretch stretch = pathStretch(routing.table());
  EXPECT_DOUBLE_EQ(stretch.average, 1.0);
  EXPECT_DOUBLE_EQ(stretch.max, 1.0);
}

TEST(PathStretch, ReflectsDetours) {
  const Topology topo = topo::ring(5);
  util::Rng rng(1);
  const Routing routing = buildUpDown(
      topo, CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng));
  const Stretch stretch = pathStretch(routing.table());
  // 2 -> 4 detours 3 hops instead of 2 (see routing_table_test).
  EXPECT_GT(stretch.max, 1.0);
  EXPECT_GE(stretch.average, 1.0);
  EXPECT_LE(stretch.average, stretch.max);
}

}  // namespace
}  // namespace downup::routing
