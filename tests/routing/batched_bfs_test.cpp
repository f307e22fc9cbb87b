// The bit-parallel table BFS against a scalar reference.  RoutingTable
// computes 64 destinations per sweep, one bit lane each; this file keeps
// the plain one-destination-at-a-time reverse BFS as the reference and
// compares every (destination, channel) step value.  The cases aim at the
// lane arithmetic: node counts around the 64-lane boundary (a partial last
// batch, bit 63), a hub at the kMaxCandidates degree limit, dead channels
// (a destination whose every input is dead, a mask that splits the
// network), several pool sizes, and rebuildDead / DestinationCheck over
// more than one batch of dirty destinations.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/downup_routing.hpp"
#include "routing/routing_table.hpp"
#include "topology/generate.hpp"
#include "util/thread_pool.hpp"

namespace downup::routing {
namespace {

bool aliveBit(std::span<const std::uint64_t> mask, ChannelId c) {
  return mask.empty() || ((mask[c >> 6] >> (c & 63)) & 1u);
}

/// The scalar reference: one reverse BFS per destination over the channel
/// graph, a FIFO queue per row.  Returns the dst-major steps table.
std::vector<std::uint16_t> referenceSteps(
    const TurnPermissions& perms, std::span<const std::uint64_t> alive) {
  const Topology& topo = perms.topology();
  const std::size_t channels = topo.channelCount();
  std::vector<std::uint16_t> steps(topo.nodeCount() * channels, kNoPath);
  std::vector<ChannelId> queue;
  for (NodeId dst = 0; dst < topo.nodeCount(); ++dst) {
    std::uint16_t* row = &steps[dst * channels];
    queue.clear();
    for (const ChannelId out : topo.outputChannels(dst)) {
      const ChannelId c = Topology::reverseChannel(out);
      if (!aliveBit(alive, c)) continue;
      row[c] = 1;
      queue.push_back(c);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const ChannelId c = queue[head];
      const NodeId via = topo.channelSrc(c);
      for (const ChannelId out : topo.outputChannels(via)) {
        const ChannelId in = Topology::reverseChannel(out);
        if (row[in] != kNoPath || !aliveBit(alive, in)) continue;
        if (!perms.allowed(via, in, c)) continue;
        row[in] = static_cast<std::uint16_t>(row[c] + 1);
        queue.push_back(in);
      }
    }
  }
  return steps;
}

/// Every step value of `table` equals the reference's; reports the first
/// mismatching row.
void expectMatchesReference(const RoutingTable& table,
                            const std::vector<std::uint16_t>& reference) {
  const Topology& topo = table.topology();
  const std::size_t channels = topo.channelCount();
  for (NodeId dst = 0; dst < topo.nodeCount(); ++dst) {
    for (ChannelId c = 0; c < channels; ++c) {
      if (table.channelSteps(dst, c) != reference[dst * channels + c]) {
        ADD_FAILURE() << "destination " << dst << ", channel " << c << ": "
                      << table.channelSteps(dst, c) << " vs reference "
                      << reference[dst * channels + c];
        return;
      }
    }
  }
}

/// A topology plus its repaired, released DOWN/UP rule.  Heap-held so the
/// rule's reference to the topology survives moves of the fixture.
struct Routed {
  std::unique_ptr<Topology> topo;
  std::unique_ptr<TurnPermissions> perms;
};

Routed routeDownUp(Topology topology) {
  Routed r;
  r.topo = std::make_unique<Topology>(std::move(topology));
  util::Rng treeRng(5);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      *r.topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  r.perms = std::make_unique<TurnPermissions>(
      *r.topo, classifyDownUp(*r.topo, ct), core::downUpTurnSet());
  core::repairTurnCycles(*r.perms);
  core::releaseRedundantProhibitions(*r.perms);
  return r;
}

Routed seededSan(NodeId switches, std::uint64_t seed) {
  util::Rng rng(seed);
  return routeDownUp(topo::randomIrregular(switches, {.maxPorts = 4}, rng));
}

std::vector<std::uint64_t> allAliveMask(const Topology& topo) {
  std::vector<std::uint64_t> mask((topo.channelCount() + 63) / 64, 0);
  for (ChannelId c = 0; c < topo.channelCount(); ++c) {
    mask[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
  return mask;
}

void kill(std::vector<std::uint64_t>& mask, ChannelId c) {
  mask[c >> 6] &= ~(std::uint64_t{1} << (c & 63));
}

/// Builds at every pool size under test and compares each to the reference.
void expectEveryPoolMatches(const TurnPermissions& perms,
                            std::span<const std::uint64_t> alive) {
  const std::vector<std::uint16_t> reference = referenceSteps(perms, alive);
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                 &one, &four}) {
    SCOPED_TRACE(testing::Message()
                 << (pool == nullptr ? 0 : pool->threadCount()) << " threads");
    expectMatchesReference(RoutingTable::build(perms, pool, alive), reference);
  }
}

TEST(BatchedBfsTest, NodeCountsAroundTheLaneWidthMatchReference) {
  for (const NodeId switches : {2u, 63u, 64u, 65u, 129u}) {
    SCOPED_TRACE(testing::Message() << switches << " switches");
    const Routed r = seededSan(switches, 900 + switches);
    expectEveryPoolMatches(*r.perms, {});
  }
}

TEST(BatchedBfsTest, HubAtTheDegreeLimitMatchesReference) {
  // Node 0 is joined to all 32 others (degree kMaxCandidates); a ring over
  // the leaves gives the BFS detours around the hub.
  const NodeId leaves = static_cast<NodeId>(kMaxCandidates);
  Topology topo(leaves + 1);
  for (NodeId v = 1; v <= leaves; ++v) topo.addLink(0, v);
  for (NodeId v = 1; v <= leaves; ++v) topo.addLink(v, v % leaves + 1);
  ASSERT_EQ(topo.degree(0), kMaxCandidates);
  const Routed r = routeDownUp(std::move(topo));
  expectEveryPoolMatches(*r.perms, {});
}

TEST(BatchedBfsTest, DeadChannelsMatchReference) {
  const Routed r = seededSan(129, 31);
  const Topology& topo = *r.topo;
  std::vector<std::uint64_t> alive = allAliveMask(topo);
  // Destination 70 (lane 6 of the second batch) loses every input channel
  // but keeps its outputs: its row must be all kNoPath.
  const NodeId cutOff = 70;
  for (const ChannelId out : topo.outputChannels(cutOff)) {
    kill(alive, Topology::reverseChannel(out));
  }
  // A scattering of single dead channels elsewhere.
  for (ChannelId c = 5; c < topo.channelCount(); c += 37) kill(alive, c);
  expectEveryPoolMatches(*r.perms, alive);

  const RoutingTable table = RoutingTable::build(*r.perms, nullptr, alive);
  for (ChannelId c = 0; c < topo.channelCount(); ++c) {
    EXPECT_EQ(table.channelSteps(cutOff, c), kNoPath) << "channel " << c;
  }
}

TEST(BatchedBfsTest, MaskSplittingTheNetworkMatchesReference) {
  const Routed r = seededSan(130, 47);
  const Topology& topo = *r.topo;
  std::vector<std::uint64_t> alive = allAliveMask(topo);
  // Cut every link between nodes below 40 and the rest: at least two
  // components, and no legal path between them.
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    const auto [a, b] = topo.linkEnds(l);
    if ((a < 40) != (b < 40)) {
      kill(alive, 2 * l);
      kill(alive, 2 * l + 1);
    }
  }
  expectEveryPoolMatches(*r.perms, alive);
  const RoutingTable table = RoutingTable::build(*r.perms, nullptr, alive);
  EXPECT_EQ(table.distance(0, 100), kNoPath);
  EXPECT_EQ(table.distance(100, 0), kNoPath);
  EXPECT_FALSE(table.allPairsConnected());
}

/// A failure on a 256-switch SAN that dirties more than two batches of
/// destinations: every fourth link dies.
struct ManyDirty {
  Routed r = seededSan(256, 2004);
  RoutingTable prev = RoutingTable::build(*r.perms);
  std::vector<std::uint64_t> alive = [this] {
    std::vector<std::uint64_t> mask = allAliveMask(*r.topo);
    for (topo::LinkId l = 0; l < r.topo->linkCount(); l += 4) {
      kill(mask, 2 * l);
      kill(mask, 2 * l + 1);
    }
    return mask;
  }();
};

TEST(BatchedBfsTest, RebuildDeadOverSeveralBatchesEqualsMaskedFullBuild) {
  const ManyDirty f;
  const std::vector<std::uint16_t> reference =
      referenceSteps(*f.r.perms, f.alive);
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                 &one, &four}) {
    SCOPED_TRACE(testing::Message()
                 << (pool == nullptr ? 0 : pool->threadCount()) << " threads");
    std::vector<NodeId> dirty;
    const std::optional<RoutingTable> rebuilt =
        RoutingTable::rebuildDead(f.prev, pool, f.alive, &dirty);
    ASSERT_TRUE(rebuilt.has_value());
    EXPECT_GT(dirty.size(), 128u);
    EXPECT_TRUE(
        rebuilt->identicalTo(RoutingTable::build(*f.r.perms, pool, f.alive)));
    expectMatchesReference(*rebuilt, reference);
  }
}

TEST(BatchedBfsTest, CheckRejectingInTheSecondBatchYieldsNullopt) {
  const ManyDirty f;
  std::vector<NodeId> dirty;
  ASSERT_TRUE(
      RoutingTable::rebuildDead(f.prev, nullptr, f.alive, &dirty).has_value());
  ASSERT_GT(dirty.size(), 128u);
  const NodeId rejected = dirty[70];  // lane 6 of the second batch
  const std::vector<std::uint16_t> reference =
      referenceSteps(*f.r.perms, f.alive);
  const std::size_t channels = f.r.topo->channelCount();

  // Serially the batches run in order, so the third is never started and
  // every check sees its destination's finished row.
  std::vector<NodeId> checked;
  const RoutingTable::DestinationCheck check =
      [&](const RoutingTable& table, NodeId dst) {
        checked.push_back(dst);
        for (ChannelId c = 0; c < channels; ++c) {
          EXPECT_EQ(table.channelSteps(dst, c), reference[dst * channels + c])
              << "destination " << dst << " checked before its row was final";
        }
        return dst != rejected;
      };
  EXPECT_FALSE(RoutingTable::rebuildDead(f.prev, nullptr, f.alive, nullptr,
                                         nullptr, check)
                   .has_value());
  EXPECT_EQ(checked, std::vector<NodeId>(dirty.begin(), dirty.begin() + 71));

  util::ThreadPool four(4);
  EXPECT_FALSE(RoutingTable::rebuildDead(
                   f.prev, &four, f.alive, nullptr, nullptr,
                   [rejected](const RoutingTable&, NodeId dst) {
                     return dst != rejected;
                   })
                   .has_value());
  EXPECT_TRUE(RoutingTable::rebuildDead(
                  f.prev, &four, f.alive, nullptr, nullptr,
                  [](const RoutingTable&, NodeId) { return true; })
                  .has_value());
}

}  // namespace
}  // namespace downup::routing
