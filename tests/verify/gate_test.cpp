// OracleGate semantics: per-point audit ledger, the planted-violation fault
// injection (with its replayable dump), the global RoutingTable::build
// hook, and the bit-for-bit inertness contract — attaching a gate to a
// fault-injected simulation must not change a single statistic.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/downup_routing.hpp"
#include "fault/schedule.hpp"
#include "sim/network.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/rng.hpp"
#include "verify/gate.hpp"
#include "verify/replay.hpp"

namespace downup::verify {
namespace {

topo::Topology makeTopo(std::uint64_t seed, topo::NodeId switches) {
  util::Rng rng(seed);
  return topo::randomIrregular(switches, {.maxPorts = 4}, rng);
}

tree::CoordinatedTree makeTree(const topo::Topology& topo,
                               std::uint64_t seed) {
  util::Rng treeRng(seed + 100);
  return tree::CoordinatedTree::build(topo, tree::TreePolicy::kM1SmallestFirst,
                                      treeRng);
}

/// Members are built in declaration order against the already-constructed
/// `topo` member, so the pointers Routing keeps into the topology stay
/// valid (a Scenario is never moved).
struct Scenario {
  explicit Scenario(std::uint64_t seed, topo::NodeId switches = 20)
      : topo(makeTopo(seed, switches)),
        ct(makeTree(topo, seed)),
        routing(core::buildDownUp(topo, ct)) {}

  topo::Topology topo;
  tree::CoordinatedTree ct;
  routing::Routing routing;
};

Scenario makeScenario(std::uint64_t seed, topo::NodeId switches = 20) {
  return Scenario(seed, switches);
}

TEST(OracleGateTest, LedgerCountsAuditsPerPoint) {
  const Scenario s = makeScenario(21);
  OracleGate gate;
  OracleInput input;
  input.perms = &s.routing.permissions();

  CaseContext context;
  context.point = "table_build";
  EXPECT_TRUE(gate.audit(input, context));
  EXPECT_TRUE(gate.audit(input, context));
  context.point = "epoch_publish";
  EXPECT_TRUE(gate.audit(input, context));

  EXPECT_EQ(gate.audits(), 3u);
  EXPECT_EQ(gate.violations(), 0u);
  EXPECT_EQ(gate.auditsAt("table_build"), 2u);
  EXPECT_EQ(gate.auditsAt("epoch_publish"), 1u);
  EXPECT_EQ(gate.auditsAt("never_seen"), 0u);
  EXPECT_TRUE(gate.lastCasePath().empty());
}

TEST(OracleGateTest, DisabledGatePassesWithoutAuditing) {
  const Scenario s = makeScenario(22);
  OracleGate::Options options;
  options.enabled = false;
  options.plantViolation = true;  // would fire if the gate ran
  OracleGate gate(options);

  OracleInput input;
  input.perms = &s.routing.permissions();
  EXPECT_TRUE(gate.audit(input, {.point = "table_build"}));
  EXPECT_EQ(gate.audits(), 0u);
  EXPECT_EQ(gate.violations(), 0u);
}

TEST(OracleGateTest, PlantedViolationFiresAndDumpsReplayableCase) {
  const Scenario s = makeScenario(23);
  ASSERT_GE(s.topo.linkCount(), s.topo.nodeCount());  // cycle exists

  OracleGate::Options options;
  options.plantViolation = true;
  options.dumpPathPrefix = ::testing::TempDir() + "gate_test_planted";
  OracleGate gate(options);

  OracleInput input;
  input.perms = &s.routing.permissions();
  CaseContext context;
  context.point = "epoch_publish";
  context.cycle = 42;
  context.epoch = 7;
  EXPECT_FALSE(gate.audit(input, context));

  EXPECT_EQ(gate.violations(), 1u);
  EXPECT_EQ(gate.casesDumped(), 1u);
  ASSERT_FALSE(gate.lastCasePath().empty());
  EXPECT_FALSE(gate.lastViolation().ruleDeadlockFree);

  // The dumped witness is replayable: reloading it and re-running the
  // oracle on the reconstructed (planted) rule reproduces the verdict.
  std::ifstream in(gate.lastCasePath());
  ASSERT_TRUE(in.is_open()) << gate.lastCasePath();
  const ReplayCase rc = loadReplayCase(in, gate.lastCasePath());
  EXPECT_EQ(rc.context.point, "epoch_publish");
  EXPECT_EQ(rc.context.cycle, 42u);
  EXPECT_EQ(rc.context.epoch, 7u);
  EXPECT_FALSE(rc.expectedRuleDeadlockFree);
  const OracleReport replayed = runOracle(rc.input());
  EXPECT_FALSE(replayed.ruleDeadlockFree);
  EXPECT_EQ(replayed.ruleDeadlockFree, rc.expectedRuleDeadlockFree);
}

TEST(OracleGateTest, DumpBudgetBoundsFilesNotViolations) {
  const Scenario s = makeScenario(24);
  OracleGate::Options options;
  options.plantViolation = true;
  options.dumpPathPrefix = ::testing::TempDir() + "gate_test_budget";
  options.maxDumpedCases = 1;
  OracleGate gate(options);

  OracleInput input;
  input.perms = &s.routing.permissions();
  EXPECT_FALSE(gate.audit(input, {.point = "table_build"}));
  EXPECT_FALSE(gate.audit(input, {.point = "table_build"}));
  EXPECT_EQ(gate.violations(), 2u);
  EXPECT_EQ(gate.casesDumped(), 1u);
}

TEST(OracleGateTest, BuildHookAuditsEveryTableConstruction) {
  const Scenario s = makeScenario(25);
  OracleGate gate;
  gate.installBuildHook();
  const std::uint64_t before = gate.auditsAt("table_build");

  // Routing's constructor builds a RoutingTable, which fires the hook.
  const routing::Routing rebuilt = core::buildDownUp(s.topo, s.ct);
  EXPECT_GT(gate.auditsAt("table_build"), before);
  EXPECT_EQ(gate.violations(), 0u);

  OracleGate::uninstallBuildHook();
  const std::uint64_t after = gate.auditsAt("table_build");
  const routing::Routing unaudited = core::buildDownUp(s.topo, s.ct);
  EXPECT_EQ(gate.auditsAt("table_build"), after);
  EXPECT_EQ(unaudited.table().fingerprint(), rebuilt.table().fingerprint());
}

TEST(OracleGateTest, DestroyingAnotherGateKeepsTheInstalledHook) {
  const Scenario s = makeScenario(27);
  OracleGate gate;
  gate.installBuildHook();
  { const OracleGate bystander; }  // never installed anything

  const routing::Routing rebuilt = core::buildDownUp(s.topo, s.ct);
  EXPECT_EQ(gate.auditsAt("table_build"), 1u);
  OracleGate::uninstallBuildHook();
}

TEST(OracleGateTest, LaterInstallTakesTheHookAndOutlivesTheEarlierGate) {
  const Scenario s = makeScenario(28);
  OracleGate later;
  {
    OracleGate earlier;
    earlier.installBuildHook();
    later.installBuildHook();
    const routing::Routing first = core::buildDownUp(s.topo, s.ct);
    EXPECT_EQ(earlier.auditsAt("table_build"), 0u);
    EXPECT_EQ(later.auditsAt("table_build"), 1u);
  }  // the earlier gate no longer owns the hook, so it leaves it installed

  const routing::Routing second = core::buildDownUp(s.topo, s.ct);
  EXPECT_EQ(later.auditsAt("table_build"), 2u);
  OracleGate::uninstallBuildHook();
}

TEST(OracleGateTest, FaultedSimulationIsBitForBitInertUnderTheGate) {
  // The gate's core contract: audits are read-only and draw no RNG, so a
  // fault-churned run produces identical statistics with and without it.
  const Scenario s = makeScenario(26, 16);

  sim::SimConfig config;
  config.packetLengthFlits = 16;
  config.warmupCycles = 200;
  config.measureCycles = 1500;
  config.reconfigLatencyCycles = 100;
  config.seed = 77;
  const fault::FaultSchedule schedule =
      fault::FaultSchedule::randomLinkFailures(s.topo, 1, 500, 1, 99);
  config.faultSchedule = &schedule;

  const sim::UniformTraffic traffic(s.topo.nodeCount());
  const auto runOnce = [&](OracleGate* gate) {
    sim::SimConfig c = config;
    c.oracleGate = gate;
    sim::WormholeNetwork net(s.routing.table(), traffic, 0.05, c);
    net.run();
    net.drainRemaining(100000);
    return net.collectStats();
  };

  const sim::RunStats plain = runOnce(nullptr);
  OracleGate gate;
  const sim::RunStats gated = runOnce(&gate);

  // The gate really ran (reconfiguration + both mid-reconfig points)...
  EXPECT_GT(gate.audits(), 0u);
  EXPECT_GE(gate.auditsAt("mid_reconfig_quarantine"), 1u);
  EXPECT_GE(gate.auditsAt("mid_reconfig_preswap"), 1u);
  EXPECT_GE(gate.auditsAt("epoch_publish"), 1u);
  EXPECT_EQ(gate.violations(), 0u);

  // ...and changed nothing.
  EXPECT_EQ(gated.cycles, plain.cycles);
  EXPECT_EQ(gated.packetsGenerated, plain.packetsGenerated);
  EXPECT_EQ(gated.packetsEjectedMeasured, plain.packetsEjectedMeasured);
  EXPECT_EQ(gated.avgLatency, plain.avgLatency);
  EXPECT_EQ(gated.p99Latency, plain.p99Latency);
  EXPECT_EQ(gated.acceptedFlitsPerNodePerCycle,
            plain.acceptedFlitsPerNodePerCycle);
  EXPECT_EQ(gated.reconfigurations, plain.reconfigurations);
  EXPECT_EQ(gated.packetsDroppedTotal(), plain.packetsDroppedTotal());
  EXPECT_EQ(gated.channelUtilization, plain.channelUtilization);
}

}  // namespace
}  // namespace downup::verify
