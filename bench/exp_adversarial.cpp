// Adversarial saturation surfaces under fault churn, with the independent
// deadlock oracle gating every routing the run ever publishes.
//
// For each routing algorithm (DOWN/UP and the L-turn comparison rule) and
// each adversarial traffic pattern (uniform baseline, tornado, root-directed
// hotspot storm, bursty MMPP), the bench sweeps offered load across the
// saturation point while a seeded link-failure schedule churns the
// topology.  Every cell runs with an OracleGate attached: table builds,
// epoch publishes and the engine's two mid-reconfiguration snapshots are
// all cross-validated against the peeling oracle (src/verify/).  The bench FAILS (exit 1) on any oracle
// violation, any undrained cell or any watchdog deadlock — it is the
// standing adversarial-robustness assertion CI runs.
//
// Cells run SERIALLY by design: the storm/MMPP patterns carry mutable
// modulation state, and serial cells make the oracle's audit ledger
// attributable per cell.
//
//   --out FILE   writes the saturation-vs-pattern surface as CSV
//                (results/adversarial_surface_128.csv is the checked-in
//                128-switch dataset)
//
//   ./exp_adversarial --switches 128 --failures 2 --out results/adversarial_surface_128.csv
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/downup_routing.hpp"
#include "exp_common.hpp"
#include "fault/schedule.hpp"
#include "sim/network.hpp"
#include "stats/sweep.hpp"
#include "topology/generate.hpp"
#include "util/thread_pool.hpp"
#include "verify/gate.hpp"

namespace {

using namespace downup;

struct CellResult {
  std::string algorithm;
  std::string pattern;
  double offered = 0.0;
  double accepted = 0.0;
  double avgLatency = 0.0;
  double p99Latency = 0.0;
  std::uint64_t dropped = 0;
  std::uint64_t reconfigurations = 0;
  bool drained = false;
  bool deadlocked = false;
  std::uint64_t oracleAudits = 0;  // audits this cell contributed
};

/// Fresh pattern per cell: the modulating patterns carry evolution state,
/// so sharing one across cells would entangle their runs.
std::unique_ptr<sim::TrafficPattern> makePattern(
    const std::string& name, const topo::Topology& topo,
    const tree::CoordinatedTree& ct, std::uint64_t seed) {
  const topo::NodeId n = topo.nodeCount();
  if (name == "uniform") return std::make_unique<sim::UniformTraffic>(n);
  if (name == "tornado") return std::make_unique<sim::TornadoTraffic>(n);
  if (name == "hotspot-storm") {
    // Storm targets: the coordinated tree's root and its neighbors — the
    // switches whose channels the DOWN/UP rule already concentrates.
    std::vector<topo::NodeId> targets{ct.root()};
    for (const topo::NodeId v : topo.neighbors(ct.root())) {
      targets.push_back(v);
    }
    return std::make_unique<sim::HotspotStormTraffic>(
        n, std::move(targets), /*stormFraction=*/0.3, /*surge=*/2.0,
        /*onMeanCycles=*/200, /*offMeanCycles=*/600, seed);
  }
  if (name == "mmpp") {
    // Duty cycle 1/4 at 4x keeps the mean offered load equal to the base
    // rate, so cells stay comparable across patterns.
    return std::make_unique<sim::MmppTraffic>(sim::MmppTraffic::onOff(
        n, /*burst=*/4.0, /*onMeanCycles=*/150, /*offMeanCycles=*/450, seed));
  }
  throw std::invalid_argument("unknown pattern " + name);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ScenarioCli cli(
      "exp_adversarial",
      "oracle-gated saturation surfaces under adversarial traffic + fault "
      "churn (DOWN/UP vs L-turn)",
      {.packetFlits = 32, .warmup = 2000, .measure = 8000,
       .obsOutputs = false});
  auto failures = cli.cli().option<int>(
      "failures", 2, "seeded link failures churned into every cell");
  auto latency = cli.cli().positiveOption<int>(
      "reconfig-latency", 200, "cycles from fault to routing hot-swap");
  auto loadPoints = cli.cli().positiveOption<int>(
      "load-points", 5, "offered-load sweep points per (algorithm, pattern)");
  auto outPath = cli.cli().option<std::string>(
      "out", "", "surface CSV path (empty = stdout only)");
  auto dumpPrefix = cli.cli().option<std::string>(
      "oracle-dump", "",
      "replay-case path prefix for oracle violations (.caseN.jsonl)");
  cli.parse(argc, argv);
  util::ThreadPool pool(static_cast<std::size_t>(cli.threads()));

  util::Rng rng(cli.seed());
  const topo::Topology topo = topo::randomIrregular(
      static_cast<topo::NodeId>(cli.switches()),
      {.maxPorts = static_cast<unsigned>(cli.ports())}, rng);
  util::Rng treeRng(cli.seed() + 100);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);

  // One gate for the whole surface: every table build in the process (the
  // hook), every epoch publish and both mid-reconfiguration snapshots of
  // every cell land in its ledger.
  verify::OracleGate::Options gateOptions;
  gateOptions.dumpPathPrefix = *dumpPrefix;
  verify::OracleGate gate(gateOptions);
  gate.installBuildHook();

  const sim::UniformTraffic probeTraffic(topo.nodeCount());
  sim::SimConfig baseConfig = cli.simConfig();
  baseConfig.reconfigLatencyCycles = static_cast<std::uint32_t>(*latency);
  baseConfig.oracleGate = &gate;

  struct Alg {
    const char* name;
    core::Algorithm algorithm;
  };
  const Alg algs[] = {{"downup", core::Algorithm::kDownUp},
                      {"lturn", core::Algorithm::kLTurn}};
  const char* patterns[] = {"uniform", "tornado", "hotspot-storm", "mmpp"};

  const int measure = cli.measure();
  const std::uint64_t firstFault = baseConfig.warmupCycles + measure / 5;
  const std::uint64_t faultStep =
      *failures > 1 ? std::max<std::uint64_t>(
                          (measure * 7ull / 10) /
                              static_cast<std::uint64_t>(*failures),
                          static_cast<std::uint64_t>(*latency) + 1)
                    : 1;
  const fault::FaultSchedule schedule =
      fault::FaultSchedule::randomLinkFailures(
          topo, static_cast<unsigned>(*failures < 0 ? 0 : *failures),
          firstFault, faultStep, cli.seed() + 500);

  std::cout << cli.switches() << " switches, " << topo.linkCount()
            << " links; " << schedule.size()
            << " churned link failure(s) per cell; oracle gate ON\n\n";

  std::vector<CellResult> cells;
  bool ok = true;
  for (const Alg& alg : algs) {
    const routing::Routing routing =
        core::buildRouting(alg.algorithm, topo, ct, &pool);
    const double saturation = stats::probeSaturationLoad(
        routing.table(), probeTraffic, baseConfig);
    std::cout << alg.name << ": saturation ~" << std::fixed
              << std::setprecision(4) << saturation << " flits/node/clock\n";

    for (const char* patternName : patterns) {
      for (int p = 0; p < *loadPoints; ++p) {
        // 0.3x .. 1.2x of the algorithm's uniform saturation point: the
        // surface shows where each pattern actually collapses.
        const double frac =
            0.3 + (1.2 - 0.3) * (*loadPoints == 1
                                     ? 1.0
                                     : static_cast<double>(p) /
                                           (*loadPoints - 1));
        const double load = std::min(1.0, frac * saturation);

        const auto pattern = makePattern(
            patternName, topo, ct,
            cli.seed() + 900 + static_cast<std::uint64_t>(p));
        sim::SimConfig config = baseConfig;
        config.faultSchedule = &schedule;
        config.seed = cli.seed() + 300 + static_cast<std::uint64_t>(p);

        const std::uint64_t auditsBefore = gate.audits();
        sim::WormholeNetwork net(routing.table(), *pattern, load, config);
        net.run();
        const bool drained = net.drainRemaining(200000);
        const sim::RunStats stats = net.collectStats();

        CellResult cell;
        cell.algorithm = alg.name;
        cell.pattern = patternName;
        cell.offered = load;
        cell.accepted = stats.acceptedFlitsPerNodePerCycle;
        cell.avgLatency = stats.avgLatency;
        cell.p99Latency = stats.p99Latency;
        cell.dropped = stats.packetsDroppedTotal();
        cell.reconfigurations = stats.reconfigurations;
        cell.drained = drained;
        cell.deadlocked = net.deadlocked();
        cell.oracleAudits = gate.audits() - auditsBefore;
        cells.push_back(cell);

        if (!drained || net.deadlocked()) ok = false;
      }
    }
  }

  const auto writeSurface = [&cells](std::ostream& out) {
    out << "algorithm,pattern,offered_load,accepted_flits_per_node_per_cycle,"
           "avg_latency,p99_latency,packets_dropped,reconfigurations,"
           "drained,oracle_audits\n";
    for (const CellResult& c : cells) {
      out << c.algorithm << ',' << c.pattern << ',' << std::fixed
          << std::setprecision(6) << c.offered << ',' << c.accepted << ','
          << std::setprecision(2) << c.avgLatency << ',' << c.p99Latency
          << ',' << c.dropped << ',' << c.reconfigurations << ','
          << (c.drained ? 1 : 0) << ',' << c.oracleAudits << "\n";
    }
  };
  if (!outPath->empty()) {
    std::ofstream out(*outPath);
    writeSurface(out);
    std::cout << "\nwrote " << *outPath << "\n";
  }

  std::cout << "\n" << std::left << std::setw(9) << "alg" << std::setw(15)
            << "pattern" << std::setw(10) << "offered" << std::setw(10)
            << "accepted" << std::setw(10) << "p99" << std::setw(8)
            << "drained" << "audits\n";
  for (const CellResult& c : cells) {
    std::cout << std::left << std::setw(9) << c.algorithm << std::setw(15)
              << c.pattern << std::setw(10) << std::fixed
              << std::setprecision(4) << c.offered << std::setw(10)
              << c.accepted << std::setw(10) << std::setprecision(1)
              << c.p99Latency << std::setw(8) << (c.drained ? "yes" : "NO")
              << c.oracleAudits << "\n";
  }

  std::cout << "\noracle: " << gate.audits() << " audits ("
            << gate.auditsAt("table_build") << " table_build, "
            << gate.auditsAt("epoch_publish") << " epoch_publish, "
            << gate.auditsAt("mid_reconfig_quarantine") << " quarantine, "
            << gate.auditsAt("mid_reconfig_preswap") << " preswap), "
            << gate.violations() << " violation(s)\n";
  if (gate.violations() != 0) {
    ok = false;
    if (!gate.lastCasePath().empty()) {
      std::cout << "last replay case: " << gate.lastCasePath() << "\n";
    }
    std::cout << gate.lastViolation().describe() << "\n";
  }
  if (schedule.size() > 0 && gate.auditsAt("mid_reconfig_quarantine") == 0) {
    std::cout << "ERROR: fault churn ran but no quarantine state was "
                 "audited\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
