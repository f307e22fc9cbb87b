// Incremental reconfiguration: Reconfigurator::rebuildIncremental keeps the
// previous epoch's turn rule and rebuilds only the destinations a failure
// can affect.  Contract under test:
//
//   * the incremental table is bit-for-bit identical to a full masked
//     RoutingTable::build of the inherited rule, at any thread count, for
//     every single-link failure and across accumulated multi-link failures;
//   * a recovery whose revived channels lie inside the inherited rule's
//     cover (the alive set a full rebuild checked it on) stays incremental
//     and reproduces the clean epoch bit for bit; a revival outside the
//     cover, or an event that kills and revives at once, forces the full
//     rebuild;
//   * the masked dependency check keeps accumulated failures on the
//     incremental path, and a DOWN/UP tree-channel failure, which the
//     inherited rule never serves, goes straight to the full rebuild;
//   * when the inherited rule cannot serve every surviving pair (e.g. a
//     tree link whose loss severs the only legal detour) the incremental
//     path detects it and falls back to the full rebuild, so every outcome
//     is ok() regardless of which path ran;
//   * in the engine, reconfigIncremental = true shortens the frozen window
//     (reconfigCyclesTotal) for incremental-served failures, serves their
//     recoveries incrementally too, and leaves results verified and fully
//     drained.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/downup_routing.hpp"
#include "fault/reconfigure.hpp"
#include "routing/cdg.hpp"
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

// A revival outside the rule's cover is a checked error, not an assert:
// this test runs (and must pass) in Release builds.  A full rebuild's
// cover is its own alive mask, so the link it was built without is
// outside; the same revival from an epoch whose cover holds the link is
// accepted.
TEST(IncrementalReconfigTest, RebuildDeadRefusesRevivedChannel) {
  const topo::Topology topo = makeSan(24, 2024);
  const Reconfigurator reconf(topo);
  std::vector<std::uint8_t> degraded = allAlive(topo.linkCount());
  degraded[0] = 0;
  const ReconfigOutcome prev =
      reconf.rebuild(degraded, allAlive(topo.nodeCount()));
  ASSERT_TRUE(prev.ok());
  ASSERT_FALSE(prev.perms->covers(0));
  ASSERT_FALSE(prev.perms->covers(1));
  const std::vector<std::uint64_t> healthy =
      channelMask(topo, allAlive(topo.linkCount()));
  EXPECT_THROW(routing::RoutingTable::rebuildDead(*prev.table, nullptr,
                                                  healthy),
               std::invalid_argument);

  const ReconfigOutcome clean =
      reconf.rebuild(allAlive(topo.linkCount()), allAlive(topo.nodeCount()));
  ASSERT_TRUE(clean.perms->covers(0));
  const routing::RoutingTable failed = routing::RoutingTable::build(
      *clean.perms, nullptr, channelMask(topo, degraded));
  const std::optional<routing::RoutingTable> recovered =
      routing::RoutingTable::rebuildDead(failed, nullptr, healthy);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(recovered->identicalTo(*clean.table));
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

  // All three links recover in one event: six channels revive at once, so
  // their new steps depend on one another.
  const std::vector<std::uint8_t> allUp = allAlive(topo.linkCount());
  const ReconfigOutcome serialUp =
      serial.rebuildIncremental(*prev.table, allUp, nodesUp);
  const ReconfigOutcome pooledUp =
      pooled.rebuildIncremental(*prev.table, allUp, nodesUp);
  ASSERT_TRUE(serialUp.ok());
  EXPECT_EQ(serialUp.incremental, pooledUp.incremental);
  EXPECT_TRUE(serialUp.table->identicalTo(*pooledUp.table));
  EXPECT_TRUE(serialUp.table->identicalTo(routing::RoutingTable::build(
      *serialUp.perms, nullptr, channelMask(topo, allUp))));
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
  // A revival outside the cover reports the full fraction (incremental
  // cannot apply).
  std::vector<std::uint8_t> degraded = allAlive(topo.linkCount());
  degraded[2] = 0;
  const ReconfigOutcome prev = reconf.rebuild(degraded, nodesUp);
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(reconf.incrementalDirtyFraction(
                *prev.table, allAlive(topo.linkCount()), nodesUp),
            1.0);

  // Recoveries: after an incremental failure the recovery's fraction is
  // the share of destinations it rebuilds, and it agrees with the path
  // that then runs; after a full-rebuild failure it is 1.0.
  const double n = static_cast<double>(topo.nodeCount());
  unsigned incrementalRecoveries = 0;
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    SCOPED_TRACE(testing::Message() << "link " << l);
    std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
    linksUp[l] = 0;
    const ReconfigOutcome failed =
        reconf.rebuildIncremental(*healthy.table, linksUp, nodesUp);
    const std::vector<std::uint8_t> allUp = allAlive(topo.linkCount());
    const double fraction =
        reconf.incrementalDirtyFraction(*failed.table, allUp, nodesUp);
    const ReconfigOutcome recovered =
        reconf.rebuildIncremental(*failed.table, allUp, nodesUp);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered.incremental, failed.incremental);
    if (recovered.incremental) {
      ++incrementalRecoveries;
      EXPECT_DOUBLE_EQ(
          fraction,
          std::max(1.0, static_cast<double>(recovered.rebuiltDestinations)) /
              n);
    } else {
      EXPECT_EQ(fraction, 1.0);
    }
  }
  EXPECT_GT(incrementalRecoveries, 0u);
}

// Every single-link fail -> recover pair on 64-switch fabrics.  A recovery
// after an incremental failure revives channels inside the inherited
// rule's cover, so it stays incremental and must equal both the masked
// full build of that rule and the clean epoch, at any thread count.  A
// recovery after a full-rebuild failure revives channels the new rule
// never covered and takes the full rebuild.
TEST(IncrementalReconfigTest, RecoveryAfterFailureRestoresCleanEpoch) {
  util::ThreadPool four(4);
  for (const unsigned ports : {4u, 8u}) {
    util::Rng rng(2004);
    const topo::Topology topo =
        topo::randomIrregular(64, {.maxPorts = ports}, rng);
    const Reconfigurator serial(topo);
    const Reconfigurator pooled(topo, &four);
    const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
    const std::vector<std::uint8_t> allUp = allAlive(topo.linkCount());
    const ReconfigOutcome clean = serial.rebuild(allUp, nodesUp);
    ASSERT_TRUE(clean.ok());

    unsigned incrementalRecoveries = 0;
    for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
      SCOPED_TRACE(testing::Message() << ports << " ports, link " << l);
      std::vector<std::uint8_t> linksUp = allUp;
      linksUp[l] = 0;
      const ReconfigOutcome failed =
          serial.rebuildIncremental(*clean.table, linksUp, nodesUp);
      ASSERT_TRUE(failed.ok());
      const ReconfigOutcome recovered =
          serial.rebuildIncremental(*failed.table, allUp, nodesUp);
      const ReconfigOutcome recoveredPooled =
          pooled.rebuildIncremental(*failed.table, allUp, nodesUp);
      ASSERT_TRUE(recovered.ok());
      EXPECT_EQ(recovered.incremental, failed.incremental);
      EXPECT_EQ(recoveredPooled.incremental, recovered.incremental);
      EXPECT_TRUE(recoveredPooled.table->identicalTo(*recovered.table));
      if (!recovered.incremental) continue;
      ++incrementalRecoveries;
      const routing::RoutingTable masked = routing::RoutingTable::build(
          *recovered.perms, nullptr, channelMask(topo, allUp));
      EXPECT_TRUE(recovered.table->identicalTo(masked));
      EXPECT_TRUE(recovered.table->identicalTo(*clean.table));
      EXPECT_EQ(recovered.averagePathLength, clean.averagePathLength);
      EXPECT_EQ(recovered.rebuiltDestinations,
                failed.table->dirtyDestinationCount(channelMask(topo, allUp)));
    }
    EXPECT_GT(incrementalRecoveries, 0u);
  }
}

// Several links fail one after another, each served incrementally, then
// all recover in one event: their channels revive together, so the new
// steps of one depend on another's.  The recovery stays inside the clean
// rule's cover and must give back the clean epoch, at any thread count.
TEST(IncrementalReconfigTest, MultiLinkRecoveryRestoresCleanEpoch) {
  util::ThreadPool four(4);
  for (const unsigned ports : {4u, 8u}) {
    SCOPED_TRACE(testing::Message() << ports << " ports");
    util::Rng rng(2004);
    const topo::Topology topo =
        topo::randomIrregular(64, {.maxPorts = ports}, rng);
    const Reconfigurator serial(topo);
    const Reconfigurator pooled(topo, &four);
    const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
    const std::vector<std::uint8_t> allUp = allAlive(topo.linkCount());
    const ReconfigOutcome clean = serial.rebuild(allUp, nodesUp);
    ASSERT_TRUE(clean.ok());

    std::vector<std::uint8_t> linksUp = allUp;
    ReconfigOutcome prev = serial.rebuildIncremental(*clean.table, allUp,
                                                     nodesUp);
    unsigned failed = 0;
    for (topo::LinkId l = 0; l < topo.linkCount() && failed < 4; l += 5) {
      linksUp[l] = 0;
      ReconfigOutcome next =
          serial.rebuildIncremental(*prev.table, linksUp, nodesUp);
      if (!next.incremental) {
        linksUp[l] = 1;
        continue;
      }
      ++failed;
      prev = std::move(next);
    }
    ASSERT_EQ(failed, 4u);
    const ReconfigOutcome up =
        serial.rebuildIncremental(*prev.table, allUp, nodesUp);
    const ReconfigOutcome upPooled =
        pooled.rebuildIncremental(*prev.table, allUp, nodesUp);
    ASSERT_TRUE(up.ok());
    EXPECT_TRUE(up.incremental);
    EXPECT_TRUE(upPooled.incremental);
    EXPECT_TRUE(up.table->identicalTo(*clean.table));
    EXPECT_TRUE(upPooled.table->identicalTo(*clean.table));
  }
}

/// Alive-component label per node over the alive links (BFS).
std::vector<std::uint32_t> componentsOf(
    const topo::Topology& topo, const std::vector<std::uint8_t>& linksUp) {
  std::vector<std::uint32_t> comp(topo.nodeCount(),
                                  static_cast<std::uint32_t>(-1));
  std::uint32_t next = 0;
  for (topo::NodeId root = 0; root < topo.nodeCount(); ++root) {
    if (comp[root] != static_cast<std::uint32_t>(-1)) continue;
    std::vector<topo::NodeId> stack{root};
    comp[root] = next;
    while (!stack.empty()) {
      const topo::NodeId u = stack.back();
      stack.pop_back();
      const auto outputs = topo.outputChannels(u);
      for (std::size_t i = 0; i < outputs.size(); ++i) {
        const topo::NodeId w = topo.neighbors(u)[i];
        if (!linksUp[topo::Topology::linkOf(outputs[i])] ||
            comp[w] != static_cast<std::uint32_t>(-1)) {
          continue;
        }
        comp[w] = next;
        stack.push_back(w);
      }
    }
    ++next;
  }
  return comp;
}

// The probe behind the tree-channel rule: from a clean epoch, rebuildDead
// with the incremental path's reachability check (every same-component
// source still reaches each dirty destination) rejects every DOWN/UP
// tree-channel failure on these fabrics, so Reconfigurator skips the
// attempt.  Cross-channel failures are mostly served.
TEST(IncrementalReconfigTest, TreeChannelFailureNeverStaysIncremental) {
  unsigned treeFailures = 0;
  unsigned crossServed = 0;
  unsigned crossFailures = 0;
  for (const unsigned ports : {4u, 8u}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      util::Rng rng(seed);
      const topo::Topology topo =
          topo::randomIrregular(64, {.maxPorts = ports}, rng);
      const Reconfigurator reconf(topo);
      const ReconfigOutcome clean = reconf.rebuild(
          allAlive(topo.linkCount()), allAlive(topo.nodeCount()));
      ASSERT_TRUE(clean.ok());
      for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
        std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
        linksUp[l] = 0;
        const std::vector<std::uint32_t> comp = componentsOf(topo, linksUp);
        const auto reached = [&comp](const routing::RoutingTable& table,
                                     topo::NodeId dst) {
          for (topo::NodeId s = 0; s < comp.size(); ++s) {
            if (s != dst && comp[s] == comp[dst] &&
                table.distance(s, dst) == routing::kNoPath) {
              return false;
            }
          }
          return true;
        };
        const bool served =
            routing::RoutingTable::rebuildDead(*clean.table, nullptr,
                                               channelMask(topo, linksUp),
                                               nullptr, nullptr, reached)
                .has_value();
        const routing::Dir dir = clean.perms->dir(2 * l);
        if (dir == routing::Dir::kLuTree || dir == routing::Dir::kRdTree) {
          ++treeFailures;
          EXPECT_FALSE(served) << ports << " ports, seed " << seed
                               << ", tree link " << l;
        } else {
          ++crossFailures;
          crossServed += served ? 1 : 0;
        }
      }
    }
  }
  EXPECT_EQ(treeFailures, 40u * 63u);
  EXPECT_GT(crossServed, crossFailures * 9 / 10);
}

// Accumulated failures stay incremental.  A full rebuild's host rule gives
// dead channels an arbitrary direction; an unmasked dependency check saw
// false cycles through them and sent nearly every second failure to the
// full rebuild.  On each fabric, every 7th link is failed by a full
// rebuild, then link+3 (mod the link count) incrementally on top; the share served
// incrementally must match, within 5 points, the share when link+3 fails
// alone from the clean epoch.
TEST(IncrementalReconfigTest, AccumulatedFailureShareMatchesFromClean) {
  unsigned pairs = 0;
  unsigned accumulated = 0;
  unsigned fromClean = 0;
  for (const unsigned ports : {4u, 8u}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      util::Rng rng(seed);
      const topo::Topology topo =
          topo::randomIrregular(64, {.maxPorts = ports}, rng);
      const Reconfigurator reconf(topo);
      const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
      const ReconfigOutcome clean =
          reconf.rebuild(allAlive(topo.linkCount()), nodesUp);
      ASSERT_TRUE(clean.ok());
      for (topo::LinkId l = 0; l < topo.linkCount(); l += 7) {
        const topo::LinkId next = (l + 3) % topo.linkCount();
        SCOPED_TRACE(testing::Message() << ports << " ports, seed " << seed
                                        << ", links " << l << ", " << next);
        std::vector<std::uint8_t> first = allAlive(topo.linkCount());
        first[l] = 0;
        const ReconfigOutcome prev = reconf.rebuild(first, nodesUp);
        ASSERT_TRUE(routing::checkChannelDependencies(*prev.perms,
                                                      channelMask(topo, first))
                        .acyclic);
        std::vector<std::uint8_t> both = first;
        both[next] = 0;
        const ReconfigOutcome second =
            reconf.rebuildIncremental(*prev.table, both, nodesUp);
        std::vector<std::uint8_t> alone = allAlive(topo.linkCount());
        alone[next] = 0;
        const ReconfigOutcome single =
            reconf.rebuildIncremental(*clean.table, alone, nodesUp);
        ASSERT_TRUE(second.ok());
        ASSERT_TRUE(single.ok());
        ++pairs;
        accumulated += second.incremental ? 1 : 0;
        fromClean += single.incremental ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(pairs, 1120u);
  std::cout << accumulated << " accumulated vs " << fromClean
            << " from clean of " << pairs << "\n";
  const double gap = (static_cast<double>(fromClean) - accumulated) / pairs;
  EXPECT_LE(std::abs(gap), 0.05)
      << accumulated << " accumulated vs " << fromClean << " from clean";
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

  // The link's recovery stays incremental too: buildDownUp's repaired rule
  // covers every channel, and the incremental failure inherits that cover.
  FaultSchedule flap = schedule;
  flap.linkUp(6000, victim);
  incrConfig.faultSchedule = &flap;
  sim::WormholeNetwork net(routing.table(), traffic, 0.05, incrConfig);
  net.run();
  ASSERT_TRUE(net.drainRemaining(100000));
  const sim::RunStats flapStats = net.collectStats();
  EXPECT_FALSE(flapStats.deadlocked);
  EXPECT_TRUE(flapStats.reconfigRoutingVerified);
  EXPECT_EQ(flapStats.reconfigurations, 2u);
  EXPECT_EQ(flapStats.reconfigIncrementalSwaps, 2u);
}

}  // namespace
}  // namespace downup::fault
