// Candidate-sequence golden: hashes what firstChannels, nextChannels and
// nextChannelsAnyTurn return for every (src, dst) and (in, dst) pair, in
// order, on the golden and seeded topologies.  The simulator's random pick
// indexes into these sequences, so any change to their membership or order
// moves RNG-driven routing decisions.  Unlike RoutingTable::fingerprint()
// this hash depends only on the query results, not on how the table stores
// them, so a change of table layout must leave every pin untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/downup_routing.hpp"
#include "fault/reconfigure.hpp"
#include "routing/routing_table.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"

namespace downup::routing {
namespace {

class CandidateHash {
 public:
  void mix(std::uint64_t v) {
    hash_ ^= v;
    hash_ *= 1099511628211ull;
  }
  template <class Seq>
  void sequence(const Seq& seq) {
    mix(seq.size());
    for (const ChannelId c : seq) mix(c);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t candidateHash(const RoutingTable& table) {
  const Topology& topo = table.topology();
  CandidateHash h;
  for (NodeId dst = 0; dst < topo.nodeCount(); ++dst) {
    for (NodeId src = 0; src < topo.nodeCount(); ++src) {
      h.sequence(table.firstChannels(src, dst));
    }
    for (ChannelId in = 0; in < topo.channelCount(); ++in) {
      h.sequence(table.nextChannels(in, dst));
      h.sequence(table.nextChannelsAnyTurn(in, dst));
    }
  }
  return h.value();
}

topo::Topology seededSan(NodeId switches, unsigned ports, std::uint64_t seed) {
  util::Rng rng(seed);
  return topo::randomIrregular(switches, {.maxPorts = ports}, rng);
}

std::vector<std::uint64_t> aliveMask(const Topology& topo,
                                     const std::vector<std::uint8_t>& linksUp) {
  std::vector<std::uint64_t> alive((topo.channelCount() + 63) / 64, 0);
  for (ChannelId c = 0; c < topo.channelCount(); ++c) {
    if (linksUp[Topology::linkOf(c)] != 0) {
      alive[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
  }
  return alive;
}

// Every algorithm over M1/M2/M3 trees on two seeded SANs (4- and 8-port):
// DOWN/UP and L-turn are the paper's pair, the others share the table.
TEST(CandidateGolden, AlgorithmsAndTreePolicies) {
  CandidateHash all;
  for (const auto& [switches, ports] :
       std::vector<std::pair<NodeId, unsigned>>{{32, 4}, {64, 8}}) {
    const Topology topo = seededSan(switches, ports, 2004);
    for (const tree::TreePolicy policy :
         {tree::TreePolicy::kM1SmallestFirst, tree::TreePolicy::kM2Random,
          tree::TreePolicy::kM3LargestFirst}) {
      util::Rng treeRng(7);
      const auto ct = tree::CoordinatedTree::build(topo, policy, treeRng);
      for (const core::Algorithm algorithm : core::kAllAlgorithms) {
        const Routing routing = core::buildRouting(algorithm, topo, ct);
        all.mix(candidateHash(routing.table()));
      }
    }
  }
  EXPECT_EQ(all.value(), UINT64_C(0x30c7d126affb7cb0));
}

// A masked build and a rebuildDead table of the same mask: both must give
// the same sequences, and those are pinned.
TEST(CandidateGolden, MaskedBuildAndRebuildDead) {
  const Topology topo = seededSan(64, 4, 2024);
  util::Rng treeRng(1);
  const auto ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const Routing routing = core::buildDownUp(topo, ct);
  std::vector<std::uint8_t> linksUp(topo.linkCount(), 1);
  linksUp[3] = 0;
  linksUp[20] = 0;
  const std::vector<std::uint64_t> alive = aliveMask(topo, linksUp);
  const RoutingTable masked =
      RoutingTable::build(routing.permissions(), nullptr, alive);
  const RoutingTable incremental =
      *RoutingTable::rebuildDead(routing.table(), nullptr, alive);
  EXPECT_TRUE(incremental.identicalTo(masked));
  EXPECT_EQ(candidateHash(masked), candidateHash(incremental));
  EXPECT_EQ(candidateHash(masked), UINT64_C(0xc8b1a58a3108117c));
}

// A full reconfiguration that splits the fabric: every link leaving the
// radius-1 ball around switch 0 dies, so each component gets its own tree
// and turn rule, and one masked build over the merged host rule serves
// them all.
TEST(CandidateGolden, MultiComponentRebuild) {
  const Topology topo = seededSan(48, 4, 2026);
  std::vector<std::uint8_t> inBall(topo.nodeCount(), 0);
  inBall[0] = 1;
  for (const NodeId v : topo.neighbors(0)) inBall[v] = 1;
  std::vector<std::uint8_t> linksUp(topo.linkCount(), 1);
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    const auto [a, b] = topo.linkEnds(l);
    if (inBall[a] != inBall[b]) linksUp[l] = 0;
  }
  const fault::Reconfigurator reconf(topo);
  const fault::ReconfigOutcome out =
      reconf.rebuild(linksUp, std::vector<std::uint8_t>(topo.nodeCount(), 1));
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out.components, 2u);
  EXPECT_EQ(candidateHash(*out.table), UINT64_C(0x4cff4c69a117ecfd));
}

}  // namespace
}  // namespace downup::routing
