#include "core/release.hpp"

#include <gtest/gtest.h>

#include "core/ddg.hpp"
#include "core/repair.hpp"
#include "routing/cdg.hpp"
#include "routing/direction.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"

namespace downup::core {
namespace {

using routing::ChannelId;
using routing::Dir;
using routing::TurnPermissions;
using tree::CoordinatedTree;
using tree::TreePolicy;

TurnPermissions makeDownUpPerms(const routing::Topology& topo,
                                const CoordinatedTree& ct) {
  return TurnPermissions(topo, routing::classifyDownUp(topo, ct),
                         downUpTurnSet());
}

TEST(Release, PureTreeHasNoCandidates) {
  // A star graph has no cross links, hence no LU/RU_CROSS input channels.
  const routing::Topology topo = topo::star(8);
  util::Rng rng(1);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
  TurnPermissions perms = makeDownUpPerms(topo, ct);
  const ReleaseStats stats = releaseRedundantProhibitions(perms);
  EXPECT_EQ(stats.candidateTurns, 0u);
  EXPECT_EQ(stats.releasedTurns, 0u);
  EXPECT_EQ(perms.releaseCount(), 0u);
}

TEST(Release, ReleasesOnlyTheTwoCandidateDirectionPairs) {
  util::Rng rng(5);
  const routing::Topology topo = topo::randomIrregular(40, {.maxPorts = 4}, rng);
  util::Rng treeRng(6);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  TurnPermissions perms = makeDownUpPerms(topo, ct);
  releaseRedundantProhibitions(perms);

  std::size_t counted = 0;
  for (routing::NodeId v = 0; v < topo.nodeCount(); ++v) {
    for (std::size_t i = 0; i < routing::kDirCount; ++i) {
      for (std::size_t j = 0; j < routing::kDirCount; ++j) {
        const Dir d1 = static_cast<Dir>(i);
        const Dir d2 = static_cast<Dir>(j);
        if (perms.isReleasedAt(v, d1, d2)) {
          ++counted;
          EXPECT_TRUE(routing::isUpCross(d1));
          EXPECT_EQ(d2, Dir::kRdTree);
        }
      }
    }
  }
  EXPECT_EQ(counted, perms.releaseCount());
}

TEST(Release, NeverIntroducesChannelDependencyCycles) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    const routing::Topology topo = topo::randomIrregular(
        32, {.maxPorts = static_cast<unsigned>(4 + seed % 5)}, rng);
    util::Rng treeRng(seed + 100);
    const CoordinatedTree ct = CoordinatedTree::build(
        topo, TreePolicy::kM1SmallestFirst, treeRng);
    TurnPermissions perms = makeDownUpPerms(topo, ct);
    // Start from an acyclic base (repair first when the raw PT is cyclic).
    repairTurnCycles(perms);
    ASSERT_TRUE(routing::checkChannelDependencies(perms).acyclic);
    releaseRedundantProhibitions(perms);
    EXPECT_TRUE(routing::checkChannelDependencies(perms).acyclic)
        << "seed " << seed;
  }
}

TEST(Release, ReleasesHappenOnRealNetworks) {
  // On saturated 4-port irregular networks many up-cross -> tree-down turns
  // are harmless; the pass should find at least some of them.
  std::size_t totalReleases = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    const routing::Topology topo =
        topo::randomIrregular(48, {.maxPorts = 4}, rng);
    util::Rng treeRng(seed + 40);
    const CoordinatedTree ct = CoordinatedTree::build(
        topo, TreePolicy::kM1SmallestFirst, treeRng);
    TurnPermissions perms = makeDownUpPerms(topo, ct);
    repairTurnCycles(perms);
    const ReleaseStats stats = releaseRedundantProhibitions(perms);
    EXPECT_LE(stats.releasedTurns, stats.candidateTurns);
    totalReleases += stats.releasedTurns;
  }
  EXPECT_GT(totalReleases, 0u);
}

TEST(Release, ReleasedTurnsAreActuallyUsable) {
  util::Rng rng(9);
  const routing::Topology topo = topo::randomIrregular(48, {.maxPorts = 4}, rng);
  util::Rng treeRng(10);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  TurnPermissions perms = makeDownUpPerms(topo, ct);
  repairTurnCycles(perms);
  releaseRedundantProhibitions(perms);
  if (perms.releaseCount() == 0) GTEST_SKIP() << "no releases on this sample";

  // For every release there must exist a concrete channel pair that the
  // release legalised.
  for (routing::NodeId v = 0; v < topo.nodeCount(); ++v) {
    for (Dir d1 : {Dir::kLuCross, Dir::kRuCross}) {
      if (!perms.isReleasedAt(v, d1, Dir::kRdTree)) continue;
      bool usable = false;
      for (ChannelId out : topo.outputChannels(v)) {
        if (perms.dir(out) != Dir::kRdTree) continue;
        const ChannelId in = routing::Topology::reverseChannel(out);
        (void)in;
        for (ChannelId in2 : topo.outputChannels(v)) {
          const ChannelId candidate = routing::Topology::reverseChannel(in2);
          if (perms.dir(candidate) == d1 &&
              perms.allowed(v, candidate, out)) {
            usable = true;
          }
        }
      }
      EXPECT_TRUE(usable) << "node " << v;
    }
  }
}

routing::Topology makeTopology(std::uint64_t seed, unsigned ports) {
  util::Rng rng(seed);
  return topo::randomIrregular(32, {.maxPorts = ports}, rng);
}

TurnPermissions makeRepairedPerms(const routing::Topology& topo,
                                  std::uint64_t seed) {
  util::Rng treeRng(seed + 200);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, treeRng);
  TurnPermissions perms = makeDownUpPerms(topo, ct);
  repairTurnCycles(perms);
  return perms;
}

/// Does node `v` have both a `d1` input and an RD_TREE output?
bool isCandidate(const TurnPermissions& perms, routing::NodeId v, Dir d1) {
  bool hasInput = false;
  bool hasOutput = false;
  for (ChannelId out : perms.topology().outputChannels(v)) {
    hasOutput |= perms.dir(out) == Dir::kRdTree;
    hasInput |= perms.dir(routing::Topology::reverseChannel(out)) == d1;
  }
  return hasInput && hasOutput;
}

TEST(Release, RerunOnReleasedSetIsAFixedPoint) {
  // Releases are only ever added, so a granted release stays cycle-free on
  // the final set and a refused one still closes its cycle: a second pass
  // must grant exactly the same turns and change no node's mask.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const unsigned ports : {4u, 8u}) {
      const routing::Topology topo = makeTopology(seed, ports);
      TurnPermissions perms = makeRepairedPerms(topo, seed);
      const ReleaseStats first = releaseRedundantProhibitions(perms);
      const TurnPermissions afterFirst = perms;
      const ReleaseStats second = releaseRedundantProhibitions(perms);
      EXPECT_EQ(second.candidateTurns, first.candidateTurns)
          << "seed " << seed << ", " << ports << " ports";
      EXPECT_EQ(second.releasedTurns, first.releasedTurns)
          << "seed " << seed << ", " << ports << " ports";
      for (routing::NodeId v = 0; v < topo.nodeCount(); ++v) {
        for (Dir d1 : {Dir::kLuCross, Dir::kRuCross}) {
          EXPECT_EQ(perms.isReleasedAt(v, d1, Dir::kRdTree),
                    afterFirst.isReleasedAt(v, d1, Dir::kRdTree))
              << "seed " << seed << ", " << ports << " ports, node " << v;
        }
      }
    }
  }
}

TEST(Release, EveryRefusedCandidateWouldCloseACycle) {
  // Maximality, checked against the whole-graph CDG oracle rather than the
  // pass's own DFS: granting any refused candidate on top of the final
  // released set must make the channel-dependency graph cyclic.
  std::size_t refused = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const unsigned ports : {4u, 8u}) {
      const routing::Topology topo = makeTopology(seed, ports);
      TurnPermissions perms = makeRepairedPerms(topo, seed);
      const ReleaseStats stats = releaseRedundantProhibitions(perms);
      ASSERT_TRUE(routing::checkChannelDependencies(perms).acyclic);

      unsigned candidates = 0;
      for (routing::NodeId v = 0; v < topo.nodeCount(); ++v) {
        for (Dir d1 : {Dir::kLuCross, Dir::kRuCross}) {
          if (!isCandidate(perms, v, d1)) continue;
          ++candidates;
          if (perms.isReleasedAt(v, d1, Dir::kRdTree)) continue;
          ++refused;
          perms.releaseAt(v, d1, Dir::kRdTree);
          EXPECT_FALSE(routing::checkChannelDependencies(perms).acyclic)
              << "seed " << seed << ", " << ports << " ports, node " << v;
          perms.revokeReleaseAt(v, d1, Dir::kRdTree);
        }
      }
      EXPECT_EQ(candidates, stats.candidateTurns)
          << "seed " << seed << ", " << ports << " ports";
    }
  }
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace downup::core
