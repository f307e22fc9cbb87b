// FabricManager: publishes from alive masks match the Reconfigurator
// reference bit for bit (including the masks a FaultController leaves after
// a same-cycle flap and a node death), every call publishes exactly one
// epoch with its flight-recorder trail, retired epochs wait for their
// readers, and an attached OracleGate audits every epoch publish —
// recording a kOracleViolation anomaly without ever blocking the publish.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fabric/manager.hpp"
#include "fault/controller.hpp"
#include "fault/schedule.hpp"
#include "obs/flight_recorder.hpp"
#include "routing/audit.hpp"
#include "topology/generate.hpp"
#include "util/rng.hpp"
#include "verify/gate.hpp"

namespace downup::fabric {
namespace {

topo::Topology makeSan(topo::NodeId switches, std::uint64_t seed) {
  util::Rng rng(seed);
  return topo::randomIrregular(switches, {.maxPorts = 4}, rng);
}

std::vector<std::uint8_t> allAlive(std::size_t count) {
  return std::vector<std::uint8_t>(count, 1);
}

struct Fixture {
  explicit Fixture(std::uint64_t seed = 11)
      : topo(makeSan(24, seed)),
        reconf(topo),
        baseline(reconf.rebuild(allAlive(topo.linkCount()),
                                allAlive(topo.nodeCount()))) {}

  topo::Topology topo;
  fault::Reconfigurator reconf;
  fault::ReconfigOutcome baseline;
};

TEST(FabricManagerTest, DrivenPublishMatchesReconfiguratorReference) {
  Fixture fx;
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[2] = 0;
  const std::uint64_t referenceFp =
      fx.reconf.rebuild(linksUp, nodesUp).table->fingerprint();

  FabricManager fm(fx.topo, *fx.baseline.table);
  Reader reader = fm.makeReader();
  EXPECT_EQ(fm.acquire(reader).epoch(), 0u);

  const PublishResult result =
      fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);
  EXPECT_TRUE(result.published);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.epoch, 1u);
  PinnedSnapshot pin = fm.acquire(reader);
  EXPECT_EQ(pin.epoch(), 1u);
  EXPECT_EQ(pin.table().fingerprint(), referenceFp);
  EXPECT_EQ(fm.rebuilds(), 1u);
}

TEST(FabricManagerTest, DrivenIncrementalMatchesFullRebuild) {
  Fixture fx;
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[3] = 0;

  FabricManager inc(fx.topo, *fx.baseline.table);
  FabricManager full(fx.topo, *fx.baseline.table);
  Reader incReader = inc.makeReader();
  Reader fullReader = full.makeReader();
  inc.publishFromMasks(linksUp, nodesUp, /*incremental=*/true);
  full.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);
  EXPECT_EQ(inc.acquire(incReader).table().fingerprint(),
            full.acquire(fullReader).table().fingerprint());
  EXPECT_LE(inc.incrementalDirtyFraction(linksUp, nodesUp), 1.0);
}

TEST(FabricManagerTest, PublishingControllerMasksMatchesReference) {
  Fixture fx;
  // A same-cycle flap nets alive (the schedule orders down before up); a
  // node death cascades to its incident links.  Publishing the masks the
  // controller is left with must equal a fresh rebuild on them.
  fault::FaultSchedule schedule;
  schedule.linkUp(100, 2).linkDown(100, 2);  // reordered to down-then-up
  schedule.nodeDown(200, 3);
  fault::FaultController controller(fx.topo, schedule);
  FabricManager fm(fx.topo, *fx.baseline.table);

  controller.applyEventsAt(100);
  EXPECT_TRUE(controller.linkAlive(2));
  controller.applyEventsAt(200);
  EXPECT_FALSE(controller.nodeAlive(3));
  const PublishResult result = fm.publishFromMasks(
      controller.linkAliveMask(), controller.nodeAliveMask(),
      /*incremental=*/true);
  EXPECT_TRUE(result.published);
  EXPECT_EQ(fm.rebuilds(), 1u);

  const std::uint64_t referenceFp =
      fx.reconf
          .rebuild(controller.linkAliveMask(), controller.nodeAliveMask())
          .table->fingerprint();
  Reader reader = fm.makeReader();
  EXPECT_EQ(fm.acquire(reader).table().fingerprint(), referenceFp);
}

TEST(FabricManagerTest, RepublishingUnchangedMasksStillAdvancesTheEpoch) {
  // There is no transition log to net a flap against: the masks are the
  // whole input, so publishing the same masks again rebuilds and publishes
  // the next epoch with the same table.
  Fixture fx;
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[2] = 0;

  FabricManager fm(fx.topo, *fx.baseline.table);
  Reader reader = fm.makeReader();
  const PublishResult first =
      fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);
  const std::uint64_t firstFp = fm.acquire(reader).table().fingerprint();
  const PublishResult second =
      fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/true);

  EXPECT_TRUE(first.published);
  EXPECT_TRUE(second.published);
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(second.epoch, 2u);
  EXPECT_EQ(fm.currentEpoch(), 2u);
  EXPECT_EQ(fm.rebuilds(), 2u);
  EXPECT_EQ(fm.acquire(reader).table().fingerprint(), firstFp);
}

TEST(FabricManagerTest, PublishResultMirrorsTheReconfiguratorOutcome) {
  Fixture fx;
  const std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  nodesUp[3] = 0;
  const fault::ReconfigOutcome reference = fx.reconf.rebuild(linksUp, nodesUp);

  FabricManager fm(fx.topo, *fx.baseline.table);
  const PublishResult result =
      fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);
  EXPECT_EQ(result.incremental, reference.incremental);
  EXPECT_EQ(result.rebuiltDestinations, reference.rebuiltDestinations);
  EXPECT_EQ(result.unreachablePairs, reference.unreachablePairs);
  EXPECT_EQ(result.components, reference.components);
  EXPECT_EQ(result.ok, reference.ok());
  EXPECT_EQ(fm.rebuildsIncremental(), 0u);
}

TEST(FabricManagerTest, IncrementalChainMatchesFullRebuildAtEveryStep) {
  // Two failures accumulate on the incremental path; the recovery revives
  // a channel, which the incremental path declines, so it rebuilds in full.
  Fixture fx;
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());

  FabricManager inc(fx.topo, *fx.baseline.table);
  FabricManager full(fx.topo, *fx.baseline.table);
  Reader incReader = inc.makeReader();
  Reader fullReader = full.makeReader();
  const auto step = [&](topo::LinkId link, std::uint8_t alive) {
    linksUp[link] = alive;
    const PublishResult result =
        inc.publishFromMasks(linksUp, nodesUp, /*incremental=*/true);
    full.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);
    EXPECT_EQ(inc.acquire(incReader).table().fingerprint(),
              full.acquire(fullReader).table().fingerprint())
        << "link " << link << " -> " << int{alive};
    return result;
  };
  step(2, 0);
  step(5, 0);
  const PublishResult recovery = step(2, 1);

  EXPECT_FALSE(recovery.incremental);
  EXPECT_EQ(inc.rebuilds(), 3u);
  EXPECT_LE(inc.rebuildsIncremental(), 2u);
  EXPECT_EQ(full.rebuildsIncremental(), 0u);
  EXPECT_EQ(inc.currentEpoch(), full.currentEpoch());
}

TEST(FabricManagerTest, PinnedEpochStaysRetiredUntilItsReaderReleases) {
  Fixture fx;
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[4] = 0;

  FabricManager fm(fx.topo, *fx.baseline.table);
  Reader reader = fm.makeReader();
  PinnedSnapshot pin = fm.acquire(reader);
  ASSERT_EQ(pin.epoch(), 0u);
  fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/true);

  // The publish path's reclaim could not free the pinned epoch.
  EXPECT_EQ(fm.retiredCount(), 1u);
  EXPECT_EQ(fm.reclaimedCount(), 0u);
  EXPECT_EQ(pin.epoch(), 0u);
  EXPECT_EQ(fm.tryReclaim(), 0u);

  pin.release();
  EXPECT_EQ(fm.tryReclaim(), 1u);
  EXPECT_EQ(fm.retiredCount(), 0u);
  EXPECT_EQ(fm.reclaimedCount(), 1u);
  EXPECT_EQ(fm.acquire(reader).epoch(), 1u);
}

TEST(FabricManagerTest, FlightRecorderLogsEachPublishInOrder) {
  Fixture fx;
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  FabricManager fm(fx.topo, *fx.baseline.table);
  linksUp[2] = 0;
  fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);
  linksUp[2] = 1;
  fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/true);

  std::vector<obs::FabricEvent> events;
  fm.flightRecorder().dump(events);
  using Kind = obs::FabricEventKind;
  const std::vector<Kind> expected = {
      Kind::kRebuildStarted, Kind::kRebuildFinished, Kind::kPublish,
      Kind::kReclaim,        Kind::kRebuildStarted,  Kind::kRebuildFinished,
      Kind::kPublish,        Kind::kReclaim};
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, expected[i]) << "event " << i;
    if (i > 0) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
    }
  }
  for (std::size_t p = 0; p < 2; ++p) {
    const std::uint64_t epoch = p + 1;
    EXPECT_EQ(events[4 * p].a, p) << "incremental requested";
    EXPECT_EQ(events[4 * p + 1].a, epoch);
    EXPECT_EQ(events[4 * p + 1].c, 1u) << "verified";
    EXPECT_EQ(events[4 * p + 2].a, epoch);
    // No reader holds a pin, so each publish frees the epoch it replaced.
    EXPECT_EQ(events[4 * p + 3].a, 1u);
    EXPECT_EQ(events[4 * p + 3].b, 0u);
  }
}

/// Records rebuildActive() each time a table construction fires the
/// global audit hook, i.e. from inside the manager's rebuild.
struct RebuildActiveProbe {
  const FabricManager* fm = nullptr;
  std::size_t builds = 0;
  std::size_t activeDuringBuild = 0;

  static void hook(void* ctx, const routing::TurnPermissions&,
                   const routing::RoutingTable&,
                   std::span<const std::uint64_t>) {
    auto* probe = static_cast<RebuildActiveProbe*>(ctx);
    ++probe->builds;
    if (probe->fm->rebuildActive()) ++probe->activeDuringBuild;
  }
};

TEST(FabricManagerTest, RebuildActiveIsRaisedOnlyWhileTheRebuildRuns) {
  Fixture fx;
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  FabricManager fm(fx.topo, *fx.baseline.table);
  RebuildActiveProbe probe;
  probe.fm = &fm;
  routing::setTableAuditHook(&RebuildActiveProbe::hook, &probe);

  EXPECT_FALSE(fm.rebuildActive());
  linksUp[2] = 0;
  fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);
  EXPECT_FALSE(fm.rebuildActive());
  linksUp[2] = 1;
  fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/true);
  EXPECT_FALSE(fm.rebuildActive());
  routing::clearTableAuditHook(&probe);

  EXPECT_GE(probe.builds, 2u);
  EXPECT_EQ(probe.activeDuringBuild, probe.builds);
}

TEST(FabricManagerTest, IncrementalDirtyFractionTracksTheCurrentEpoch) {
  Fixture fx;
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  FabricManager fm(fx.topo, *fx.baseline.table);
  Reader reader = fm.makeReader();

  linksUp[2] = 0;
  EXPECT_DOUBLE_EQ(
      fm.incrementalDirtyFraction(linksUp, nodesUp),
      fx.reconf.incrementalDirtyFraction(*fx.baseline.table, linksUp, nodesUp));
  fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/true);

  // Against epoch 1 a second failure is measured from the published table...
  linksUp[5] = 0;
  {
    PinnedSnapshot pin = fm.acquire(reader);
    const double fraction = fm.incrementalDirtyFraction(linksUp, nodesUp);
    EXPECT_DOUBLE_EQ(fraction, fx.reconf.incrementalDirtyFraction(
                                   pin.table(), linksUp, nodesUp));
    EXPECT_GT(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
  }
  // ...and reviving link 2 is a revival the incremental path declines.
  linksUp[5] = 1;
  linksUp[2] = 1;
  EXPECT_DOUBLE_EQ(fm.incrementalDirtyFraction(linksUp, nodesUp), 1.0);
}

/// kOracleViolation anomalies currently in the flight-recorder ring.
std::size_t oracleAnomalies(const obs::FlightRecorder& flight) {
  std::vector<obs::FabricEvent> events;
  flight.dump(events);
  return static_cast<std::size_t>(std::count_if(
      events.begin(), events.end(), [](const obs::FabricEvent& e) {
        return e.kind == obs::FabricEventKind::kAnomaly &&
               e.a == static_cast<std::uint64_t>(
                          obs::AnomalyCode::kOracleViolation);
      }));
}

TEST(FabricManagerTest, CleanOracleAuditsEveryDrivenPublishSilently) {
  Fixture fx;
  verify::OracleGate gate;
  FabricManager::Options options;
  options.oracle = &gate;
  FabricManager fm(fx.topo, *fx.baseline.table, options);

  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[2] = 0;
  const PublishResult result =
      fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);
  EXPECT_TRUE(result.published);

  // The epoch publish was audited...
  EXPECT_GE(gate.auditsAt("epoch_publish"), 1u);
  // ...and a healthy rule leaves no trace anywhere.
  EXPECT_EQ(gate.violations(), 0u);
  EXPECT_EQ(fm.oracleViolations(), 0u);
  EXPECT_TRUE(fm.allPublishedOk());
  EXPECT_EQ(oracleAnomalies(fm.flightRecorder()), 0u);
}

TEST(FabricManagerTest, PlantedViolationRecordsAnomalyButNeverBlocks) {
  Fixture fx;
  verify::OracleGate::Options gateOptions;
  gateOptions.plantViolation = true;
  verify::OracleGate gate(gateOptions);
  FabricManager::Options options;
  options.oracle = &gate;
  FabricManager fm(fx.topo, *fx.baseline.table, options);

  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[1] = 0;
  const PublishResult result =
      fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);

  // Enforcement is observational: the epoch still went live (simulation
  // determinism), but the violation is counted and flight-recorded.
  EXPECT_TRUE(result.published);
  EXPECT_EQ(fm.currentEpoch(), 1u);
  EXPECT_GE(gate.violations(), 1u);
  EXPECT_EQ(fm.oracleViolations(), 1u);
  EXPECT_GE(oracleAnomalies(fm.flightRecorder()), 1u);
  // The oracle verdict must not be conflated with routing verification.
  EXPECT_TRUE(fm.allPublishedOk());
}

}  // namespace
}  // namespace downup::fabric
