// Incremental reconfiguration: Reconfigurator::rebuildIncremental keeps the
// previous epoch's turn rule and rebuilds only the destinations a failure
// can affect.  Contract under test:
//
//   * the incremental table is bit-for-bit identical to a full masked
//     RoutingTable::build of the inherited rule, at any thread count, for
//     every single-link failure and across accumulated multi-link failures;
//   * a revived resource forces the full-rebuild path (incremental never
//     handles topology growth);
//   * when the inherited rule cannot serve every surviving pair (e.g. a
//     tree link whose loss severs the only legal detour) the incremental
//     path detects it and falls back to the full rebuild, so every outcome
//     is ok() regardless of which path ran;
//   * in the engine, reconfigIncremental = true shortens the frozen window
//     (reconfigCyclesTotal) for incremental-served failures and leaves
//     results verified and fully drained.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/downup_routing.hpp"
#include "fault/reconfigure.hpp"
#include "fault/schedule.hpp"
#include "routing/routing_table.hpp"
#include "sim/network.hpp"
#include "topology/generate.hpp"
#include "util/thread_pool.hpp"

namespace downup::fault {
namespace {

topo::Topology makeSan(topo::NodeId switches, std::uint64_t seed) {
  util::Rng rng(seed);
  return topo::randomIrregular(switches, {.maxPorts = 4}, rng);
}

std::vector<std::uint8_t> allAlive(std::size_t count) {
  return std::vector<std::uint8_t>(count, 1);
}

std::vector<std::uint64_t> channelMask(
    const topo::Topology& topo, const std::vector<std::uint8_t>& linksUp) {
  std::vector<std::uint64_t> alive((topo.channelCount() + 63) / 64, 0);
  for (topo::ChannelId c = 0; c < topo.channelCount(); ++c) {
    if (linksUp[topo::Topology::linkOf(c)] != 0) {
      alive[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
  }
  return alive;
}

// The incremental path checks each dirty destination right after its BFS
// and falls back at the first within-component source that no longer
// reaches it.  Every failure must end in the table of the path it took:
// the masked full build of the inherited rule when served incrementally,
// the full rebuild otherwise — and on the 32/64-switch SANs both occur.
TEST(IncrementalReconfigTest, EverySingleLinkFailureMatchesMaskedFullBuild) {
  const std::pair<topo::NodeId, std::uint64_t> sans[] = {
      {24, 2024}, {24, 2025}, {24, 2026}, {32, 2004}, {64, 2004}};
  unsigned fellBack = 0;
  for (const auto& [switches, seed] : sans) {
    const topo::Topology topo = makeSan(switches, seed);
    const Reconfigurator reconf(topo);
    const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
    const ReconfigOutcome healthy =
        reconf.rebuild(allAlive(topo.linkCount()), nodesUp);
    ASSERT_TRUE(healthy.ok());

    unsigned servedIncrementally = 0;
    for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
      SCOPED_TRACE(testing::Message() << switches << " switches, seed "
                                      << seed << ", link " << l);
      std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
      linksUp[l] = 0;
      const ReconfigOutcome out =
          reconf.rebuildIncremental(*healthy.table, linksUp, nodesUp);
      ASSERT_TRUE(out.ok());
      if (!out.incremental) {
        ++fellBack;
        EXPECT_TRUE(out.table->identicalTo(
            *reconf.rebuild(linksUp, nodesUp).table));
        continue;
      }
      ++servedIncrementally;
      // The incremental epoch must equal the masked full build of the
      // INHERITED rule exactly (same steps, hence the same candidates).
      const routing::RoutingTable masked = routing::RoutingTable::build(
          *out.perms, nullptr, channelMask(topo, linksUp));
      EXPECT_TRUE(out.table->identicalTo(masked));
      EXPECT_EQ(out.rebuiltDestinations,
                healthy.table->dirtyDestinationCount(
                    channelMask(topo, linksUp)));
    }
    // The incremental path must actually fire on a healthy SAN — if every
    // link fell back, the dirty-set machinery is broken.
    EXPECT_GT(servedIncrementally, 0u);
  }
  EXPECT_GT(fellBack, 0u);
}

// A rejected destination abandons rebuildDead: no table, and no further
// destination is rebuilt or checked once the first one fails.
TEST(IncrementalReconfigTest, RejectedDestinationAbandonsRebuildDead) {
  const topo::Topology topo = makeSan(32, 2004);
  const Reconfigurator reconf(topo);
  const ReconfigOutcome healthy = reconf.rebuild(
      allAlive(topo.linkCount()), allAlive(topo.nodeCount()));
  ASSERT_TRUE(healthy.ok());
  std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
  linksUp[0] = 0;
  const std::vector<std::uint64_t> alive = channelMask(topo, linksUp);
  ASSERT_GT(healthy.table->dirtyDestinationCount(alive), 1u);

  unsigned checked = 0;
  const auto rejectAll = [&checked](const routing::RoutingTable&,
                                    topo::NodeId) {
    ++checked;
    return false;
  };
  EXPECT_FALSE(routing::RoutingTable::rebuildDead(*healthy.table, nullptr,
                                                  alive, nullptr, nullptr,
                                                  rejectAll)
                   .has_value());
  EXPECT_EQ(checked, 1u);
}

// The revived-channel precondition is a checked error, not an assert: this
// test runs (and must pass) in Release builds.
TEST(IncrementalReconfigTest, RebuildDeadRefusesRevivedChannel) {
  const topo::Topology topo = makeSan(24, 2024);
  const Reconfigurator reconf(topo);
  std::vector<std::uint8_t> degraded = allAlive(topo.linkCount());
  degraded[0] = 0;
  const ReconfigOutcome prev =
      reconf.rebuild(degraded, allAlive(topo.nodeCount()));
  ASSERT_TRUE(prev.ok());
  const std::vector<std::uint64_t> healthy =
      channelMask(topo, allAlive(topo.linkCount()));
  EXPECT_THROW(routing::RoutingTable::rebuildDead(*prev.table, nullptr,
                                                  healthy),
               std::invalid_argument);
}

TEST(IncrementalReconfigTest, AccumulatedFailuresAndThreadCountDeterminism) {
  const topo::Topology topo = makeSan(32, 99);
  util::ThreadPool four(4);
  const Reconfigurator serial(topo);
  const Reconfigurator pooled(topo, &four);
  const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
  std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());

  ReconfigOutcome prev = serial.rebuild(linksUp, nodesUp);
  ASSERT_TRUE(prev.ok());

  // Kill links one at a time, feeding each incremental epoch the previous
  // one — the masks only ever clear bits, so the precondition holds.
  unsigned incrementalEpochs = 0;
  for (const topo::LinkId l : {0u, 7u, 13u}) {
    linksUp[l] = 0;
    ReconfigOutcome serialOut =
        serial.rebuildIncremental(*prev.table, linksUp, nodesUp);
    ReconfigOutcome pooledOut =
        pooled.rebuildIncremental(*prev.table, linksUp, nodesUp);
    ASSERT_TRUE(serialOut.ok());
    ASSERT_TRUE(pooledOut.ok());
    EXPECT_EQ(serialOut.incremental, pooledOut.incremental);
    EXPECT_TRUE(serialOut.table->identicalTo(*pooledOut.table));
    EXPECT_EQ(serialOut.table->fingerprint(), pooledOut.table->fingerprint());
    incrementalEpochs += serialOut.incremental ? 1 : 0;
    prev = std::move(serialOut);
  }
  EXPECT_GE(incrementalEpochs, 1u);
}

TEST(IncrementalReconfigTest, RevivalForcesFullRebuild) {
  const topo::Topology topo = makeSan(24, 2024);
  const Reconfigurator reconf(topo);
  const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());

  // Previous epoch: link 0 dead.  New masks: link 0 alive again (and link 1
  // dead, so the masks are not trivially healthy).
  std::vector<std::uint8_t> degraded = allAlive(topo.linkCount());
  degraded[0] = 0;
  const ReconfigOutcome prev = reconf.rebuild(degraded, nodesUp);
  ASSERT_TRUE(prev.ok());

  std::vector<std::uint8_t> revived = allAlive(topo.linkCount());
  revived[1] = 0;
  const ReconfigOutcome out =
      reconf.rebuildIncremental(*prev.table, revived, nodesUp);
  EXPECT_FALSE(out.incremental);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.rebuiltDestinations, out.aliveNodes);
}

TEST(IncrementalReconfigTest, DirtyFractionBoundsAndFallbackConsistency) {
  const topo::Topology topo = makeSan(24, 2024);
  const Reconfigurator reconf(topo);
  const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
  const ReconfigOutcome healthy =
      reconf.rebuild(allAlive(topo.linkCount()), nodesUp);
  ASSERT_TRUE(healthy.ok());

  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
    linksUp[l] = 0;
    const double fraction =
        reconf.incrementalDirtyFraction(*healthy.table, linksUp, nodesUp);
    EXPECT_GT(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
  }
  // A revival reports the full fraction (incremental cannot apply).
  std::vector<std::uint8_t> degraded = allAlive(topo.linkCount());
  degraded[2] = 0;
  const ReconfigOutcome prev = reconf.rebuild(degraded, nodesUp);
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(reconf.incrementalDirtyFraction(
                *prev.table, allAlive(topo.linkCount()), nodesUp),
            1.0);
}

// Engine integration: the same fault scenario with and without
// reconfigIncremental.  The incremental run must freeze injection for
// FEWER total cycles (the window scales with the dirty fraction), complete
// at least one incremental swap, stay verified, and drain completely.
TEST(IncrementalReconfigTest, EngineShortensReconfigWindow) {
  const topo::Topology topo = makeSan(32, 7);
  util::Rng treeRng(8);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing routing = core::buildDownUp(topo, ct);
  const sim::UniformTraffic traffic(topo.nodeCount());

  // A link failure the incremental path can serve: probe offline first so
  // the engine assertion below is about window length, not applicability.
  const Reconfigurator reconf(topo);
  const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
  const ReconfigOutcome healthy =
      reconf.rebuild(allAlive(topo.linkCount()), nodesUp);
  ASSERT_TRUE(healthy.ok());
  topo::LinkId victim = topo.linkCount();
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
    linksUp[l] = 0;
    const ReconfigOutcome probe =
        reconf.rebuildIncremental(*healthy.table, linksUp, nodesUp);
    if (probe.ok() && probe.incremental &&
        probe.unreachablePairs == 0) {
      victim = l;
      break;
    }
  }
  ASSERT_LT(victim, topo.linkCount()) << "no incremental-served link found";

  FaultSchedule schedule;
  schedule.linkDown(3000, victim);

  sim::SimConfig config;
  config.packetLengthFlits = 16;
  config.warmupCycles = 1000;
  config.measureCycles = 8000;
  config.reconfigLatencyCycles = 400;
  config.faultSchedule = &schedule;
  config.seed = 11;

  sim::RunStats fullStats;
  {
    sim::WormholeNetwork net(routing.table(), traffic, 0.05, config);
    net.run();
    ASSERT_TRUE(net.drainRemaining(100000));
    fullStats = net.collectStats();
  }
  sim::SimConfig incrConfig = config;
  incrConfig.reconfigIncremental = true;
  sim::RunStats incrStats;
  {
    sim::WormholeNetwork net(routing.table(), traffic, 0.05, incrConfig);
    net.run();
    ASSERT_TRUE(net.drainRemaining(100000));
    incrStats = net.collectStats();
  }

  EXPECT_FALSE(fullStats.deadlocked);
  EXPECT_FALSE(incrStats.deadlocked);
  EXPECT_TRUE(fullStats.reconfigRoutingVerified);
  EXPECT_TRUE(incrStats.reconfigRoutingVerified);
  EXPECT_EQ(fullStats.reconfigurations, 1u);
  EXPECT_EQ(incrStats.reconfigurations, 1u);
  EXPECT_EQ(fullStats.reconfigIncrementalSwaps, 0u);
  EXPECT_EQ(incrStats.reconfigIncrementalSwaps, 1u);
  // The swap cycle itself counts as open, hence >= rather than ==.
  EXPECT_GE(fullStats.reconfigCyclesTotal, config.reconfigLatencyCycles);
  EXPECT_LT(incrStats.reconfigCyclesTotal, fullStats.reconfigCyclesTotal);
  EXPECT_LT(incrStats.reconfigDestinationsRebuilt,
            fullStats.reconfigDestinationsRebuilt);
}

}  // namespace
}  // namespace downup::fault
