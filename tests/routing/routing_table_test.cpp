#include "routing/routing_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "routing/direction.hpp"
#include "topology/generate.hpp"
#include "topology/properties.hpp"
#include "tree/coordinated_tree.hpp"

namespace downup::routing {
namespace {

tree::CoordinatedTree m1Tree(const Topology& topo) {
  util::Rng rng(1);
  return tree::CoordinatedTree::build(topo,
                                      tree::TreePolicy::kM1SmallestFirst, rng);
}

TEST(RoutingTable, LineDistancesMatchGraphDistances) {
  const Topology topo = topo::line(6);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  for (NodeId s = 0; s < 6; ++s) {
    for (NodeId d = 0; d < 6; ++d) {
      EXPECT_EQ(table.distance(s, d), (s > d ? s - d : d - s));
    }
  }
  EXPECT_TRUE(table.allPairsConnected());
}

TEST(RoutingTable, DistanceToSelfIsZero) {
  const Topology topo = topo::ring(4);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(table.distance(v, v), 0u);
}

TEST(RoutingTable, UpDownOnRingForcesDetours) {
  // Ring 0-1-2-3-4-0 with up*/down* rooted at 0: 2 -> 4 cannot take the
  // 2-hop route (its second hop is a prohibited down->up turn) and must go
  // up through the root instead (3 hops).
  const Topology topo = topo::ring(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  EXPECT_TRUE(table.allPairsConnected());
  EXPECT_EQ(table.distance(2, 4), 3u);
  bool sawStretch = false;
  for (NodeId s = 0; s < 5; ++s) {
    const auto graphDist = topo::bfsDistances(topo, s);
    for (NodeId d = 0; d < 5; ++d) {
      if (s == d) continue;
      EXPECT_GE(table.distance(s, d), graphDist[d]);
      if (table.distance(s, d) > graphDist[d]) sawStretch = true;
    }
  }
  EXPECT_TRUE(sawStretch) << "expected at least one non-minimal legal path";
}

TEST(RoutingTable, PermissiveDistancesEqualGraphDistances) {
  util::Rng rng(5);
  const Topology topo = topo::randomIrregular(24, {.maxPorts = 4}, rng);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const RoutingTable table = RoutingTable::build(perms);
  for (NodeId s = 0; s < topo.nodeCount(); ++s) {
    const auto dist = topo::bfsDistances(topo, s);
    for (NodeId d = 0; d < topo.nodeCount(); ++d) {
      if (s != d) {
        EXPECT_EQ(table.distance(s, d), dist[d]);
      }
    }
  }
}

TEST(RoutingTable, FirstChannelsAreMinimalStarts) {
  const Topology topo = topo::ring(6);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const RoutingTable table = RoutingTable::build(perms);
  Candidates firsts = table.firstChannels(0, 3);  // both ways: 3 hops
  EXPECT_EQ(firsts.size(), 2u);
  for (ChannelId c : firsts) {
    EXPECT_EQ(topo.channelSrc(c), 0u);
    EXPECT_EQ(table.channelSteps(3, c), 3u);
  }

  firsts = table.firstChannels(0, 1);  // unique shortest
  ASSERT_EQ(firsts.size(), 1u);
  EXPECT_EQ(topo.channelDst(firsts[0]), 1u);
}

TEST(RoutingTable, FirstChannelsEmptyForSelf) {
  const Topology topo = topo::ring(4);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  EXPECT_TRUE(table.firstChannels(2, 2).empty());
}

TEST(RoutingTable, NextChannelsDecrementStepsByOne) {
  util::Rng rng(9);
  const Topology topo = topo::randomIrregular(20, {.maxPorts = 4}, rng);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);

  for (NodeId s = 0; s < topo.nodeCount(); ++s) {
    for (NodeId d = 0; d < topo.nodeCount(); ++d) {
      if (s == d) continue;
      const Candidates firsts = table.firstChannels(s, d);
      ASSERT_FALSE(firsts.empty()) << s << " to " << d;
      for (ChannelId c : firsts) {
        // Walk one full minimal path greedily and confirm steps decrease
        // by exactly one per hop until the destination is reached.
        ChannelId current = c;
        std::uint16_t remaining = table.channelSteps(d, current);
        while (topo.channelDst(current) != d) {
          const Candidates nexts = table.nextChannels(current, d);
          ASSERT_FALSE(nexts.empty());
          for (ChannelId n : nexts) {
            EXPECT_EQ(table.channelSteps(d, n), remaining - 1);
            EXPECT_TRUE(perms.allowed(topo.channelDst(current), current, n));
          }
          current = nexts.front();
          --remaining;
        }
        EXPECT_EQ(remaining, 1u);
      }
    }
  }
}

TEST(RoutingTable, NextChannelsEmptyAtDestination) {
  const Topology topo = topo::line(3);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  EXPECT_TRUE(table.nextChannels(topo.channel(0, 1), 1).empty());
}

TEST(RoutingTable, DetectsDisconnection) {
  // Block every turn except same-direction: on a star with up*/down*
  // everything still works (all paths are up then down)...
  const Topology topo = topo::star(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable okTable = RoutingTable::build(perms);
  EXPECT_TRUE(okTable.allPairsConnected());

  // ...but blocking the hub's turning ability disconnects leaf pairs.
  TurnPermissions broken(topo, classifyUpDown(topo, m1Tree(topo)),
                         upDownTurnSet());
  broken.blockAt(0, Dir::kLuTree, Dir::kRdTree);
  const RoutingTable brokenTable = RoutingTable::build(broken);
  EXPECT_FALSE(brokenTable.allPairsConnected());
  EXPECT_EQ(brokenTable.distance(1, 2), kNoPath);
  EXPECT_NE(brokenTable.distance(1, 0), kNoPath);
}

TEST(RoutingTable, NextChannelsAnyTurnIgnoresTurnRuleOnly) {
  // Ring 0-1-2-3-4 with up*/down*: 2 -> 4 has legal distance 3 (via the
  // root) because 3 -> 4 would be a prohibited down->up turn.  The
  // any-turn relation follows the same legal-steps potential, so it offers
  // exactly the outputs one potential step closer — including ones the turn
  // rule forbids.
  const Topology topo = topo::ring(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);

  const ChannelId c12 = topo.channel(1, 2);
  const Candidates legal = table.nextChannels(c12, 0);
  const Candidates any = table.nextChannelsAnyTurn(c12, 0);
  // Toward the root both relations agree here.
  for (ChannelId c : any) {
    EXPECT_EQ(table.channelSteps(0, c), table.channelSteps(0, c12) - 1);
    EXPECT_NE(c, Topology::reverseChannel(c12));
  }
  // The any-turn set is always a superset of the legal set.
  for (ChannelId c : legal) {
    EXPECT_NE(std::find(any.begin(), any.end(), c), any.end());
  }

  // On a richer network the superset is strict somewhere: some
  // potential-decrementing successor is turn-prohibited (it lies on a legal
  // path for packets that arrive from a different direction).
  util::Rng rng(6);
  const Topology big = topo::randomIrregular(24, {.maxPorts = 4}, rng);
  TurnPermissions bigPerms(big, classifyUpDown(big, m1Tree(big)),
                           upDownTurnSet());
  const RoutingTable bigTable = RoutingTable::build(bigPerms);
  bool strictSomewhere = false;
  for (ChannelId in = 0; in < big.channelCount() && !strictSomewhere; ++in) {
    for (NodeId dst = 0; dst < big.nodeCount(); ++dst) {
      if (big.channelDst(in) == dst || big.channelSrc(in) == dst) continue;
      const std::size_t legalCount = bigTable.nextChannels(in, dst).size();
      const std::size_t anyCount =
          bigTable.nextChannelsAnyTurn(in, dst).size();
      EXPECT_GE(anyCount, legalCount);
      if (anyCount > legalCount) {
        strictSomewhere = true;
        break;
      }
    }
  }
  EXPECT_TRUE(strictSomewhere);
}

TEST(RoutingTable, NextChannelsAnyTurnEmptyAtDestination) {
  const Topology topo = topo::line(3);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  EXPECT_TRUE(table.nextChannelsAnyTurn(topo.channel(0, 1), 1).empty());
}

// Candidate queries hold at most kMaxCandidates channels inline, so a
// topology with a larger degree is refused at build time, in any build
// mode.
TEST(RoutingTable, RefusesDegreeAboveCandidateCapacity) {
  const Topology fits = topo::star(kMaxCandidates + 1);  // hub degree 32
  TurnPermissions fitsPerms(fits, classifyUpDown(fits, m1Tree(fits)),
                            upDownTurnSet());
  EXPECT_TRUE(RoutingTable::build(fitsPerms).allPairsConnected());

  const Topology wide = topo::star(kMaxCandidates + 2);
  TurnPermissions widePerms(wide, classifyUpDown(wide, m1Tree(wide)),
                            upDownTurnSet());
  EXPECT_THROW(RoutingTable::build(widePerms), std::invalid_argument);
}

TEST(RoutingTable, AveragePathLengthOnCompleteGraph) {
  const Topology topo = topo::complete(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const RoutingTable table = RoutingTable::build(perms);
  EXPECT_DOUBLE_EQ(table.averagePathLength(), 1.0);
}

}  // namespace
}  // namespace downup::routing
