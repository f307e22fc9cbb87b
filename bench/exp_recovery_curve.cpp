// Fault recovery curves: the transient the aggregate tables average away.
// Injects seeded link failures into a DOWN/UP run with the windowed
// time-series collector attached, then extracts per-event recovery metrics
// (time-to-reroute, throughput-dip depth/width, time-to-recover, delivered
// deficit) with stats::analyzeRecovery — once under full table rebuilds and
// once under incremental reconfiguration, same faults and seeds.
//
// The wait-for-graph sampler rides along on every run; the bench FAILS
// (exit 1) if any sample ever contains a channel wait cycle, making it a
// standing no-deadlock assertion for CI, alongside drain + routing-verify.
//
// The independent deadlock oracle (src/verify/) is ON by default: every
// table build, epoch publish and both mid-reconfiguration snapshots are
// cross-validated, and the bench fails
// on any violation (or if fault churn ran without the oracle ever seeing a
// quarantine state).  --plant-violation audits a deliberately corrupted
// rule instead, proving the gate fires: the run then exits nonzero and
// (with --oracle-dump PREFIX) leaves a replayable oracle_case/1 witness.
//
// Datasets (checked into results/ for the 32- and 1024-switch single-link
// scenarios):
//
//   --out PREFIX  writes PREFIX.<strategy>.timeseries.csv (the windowed
//                 curve itself) and PREFIX.<strategy>.events.csv (one row
//                 per fault event) for strategy in {full, incremental}
//
//   ./exp_recovery_curve --switches 32 --failures 1 --out results/recovery_32
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/downup_routing.hpp"
#include "exp_common.hpp"
#include "fault/schedule.hpp"
#include "obs/observer.hpp"
#include "sim/network.hpp"
#include "stats/recovery.hpp"
#include "stats/sweep.hpp"
#include "topology/generate.hpp"
#include "util/thread_pool.hpp"
#include "verify/gate.hpp"

namespace {

using namespace downup;

struct StrategyRun {
  const char* name;
  bool incremental;
  std::vector<stats::FaultRecovery> events;
  bool drained = false;
  bool verified = false;
  std::uint64_t cycleSamples = 0;
  std::uint64_t waitForSamples = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::ScenarioCli cli(
      "exp_recovery_curve",
      "per-fault-event recovery transients, full vs incremental "
      "reconfiguration",
      {.packetFlits = 32, .warmup = 2000, .measure = 20000});
  auto failures = cli.cli().positiveOption<int>(
      "failures", 1, "link failures injected mid-run");
  auto latency = cli.cli().positiveOption<int>(
      "reconfig-latency", 200, "cycles from fault to routing hot-swap");
  auto loadFrac = cli.cli().option<double>(
      "load-frac", 0.6, "offered load as a fraction of probed saturation");
  auto window = cli.cli().positiveOption<int>(
      "window", 256, "time-series window length in cycles");
  auto outPrefix = cli.cli().option<std::string>(
      "out", "",
      "dataset prefix (.<strategy>.timeseries.csv / .events.csv appended)");
  auto noOracle = cli.cli().flag(
      "no-oracle", "detach the independent deadlock oracle (default: on)");
  auto plantViolation = cli.cli().flag(
      "plant-violation",
      "audit an unrestricted copy of every rule (gate self-test; the run "
      "must exit nonzero)");
  auto oracleDump = cli.cli().option<std::string>(
      "oracle-dump", "",
      "replay-case path prefix for oracle violations (.caseN.jsonl)");
  cli.parse(argc, argv);
  util::ThreadPool pool(static_cast<std::size_t>(cli.threads()));

  // Gate first, build hook installed before any table exists, so the
  // initial healthy build is audited too.
  verify::OracleGate::Options gateOptions;
  gateOptions.enabled = !*noOracle;
  gateOptions.plantViolation = *plantViolation;
  gateOptions.dumpPathPrefix = *oracleDump;
  verify::OracleGate gate(gateOptions);
  if (gateOptions.enabled) gate.installBuildHook();

  util::Rng rng(cli.seed());
  const topo::Topology topo = topo::randomIrregular(
      static_cast<topo::NodeId>(cli.switches()),
      {.maxPorts = static_cast<unsigned>(cli.ports())}, rng);
  util::Rng treeRng(cli.seed() + 100);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing routing =
      core::buildDownUp(topo, ct, {.pool = &pool});
  const sim::UniformTraffic traffic(topo.nodeCount());

  sim::SimConfig config = cli.simConfig();
  config.reconfigLatencyCycles = static_cast<std::uint32_t>(*latency);
  config.seed = cli.seed() + 300;
  if (gateOptions.enabled) config.oracleGate = &gate;

  const double saturation =
      stats::probeSaturationLoad(routing.table(), traffic, config);
  const double load = std::min(1.0, *loadFrac * saturation);

  // Failures land spread across the measurement window, each far enough
  // from the next that its reconfiguration completes first.
  const int measure = cli.measure();
  const std::uint64_t first = config.warmupCycles + measure / 5;
  const std::uint64_t step =
      *failures > 1 ? std::max<std::uint64_t>(
                          (measure * 7ull / 10) /
                              static_cast<std::uint64_t>(*failures),
                          static_cast<std::uint64_t>(*latency) + 1)
                    : 1;
  const fault::FaultSchedule schedule =
      fault::FaultSchedule::randomLinkFailures(
          topo, static_cast<unsigned>(*failures), first, step,
          cli.seed() + 500);
  config.faultSchedule = &schedule;

  std::cout << cli.switches() << " switches, " << topo.linkCount()
            << " links; saturation ~" << std::fixed << std::setprecision(4)
            << saturation << " flits/node/clock; offered " << load << "; "
            << schedule.size() << " failure(s); window " << *window
            << " cycles; reconfig latency " << *latency << "\n\n";

  StrategyRun runs[] = {{"full", false}, {"incremental", true}};
  bool ok = true;
  for (StrategyRun& run : runs) {
    sim::SimConfig strategyConfig = config;
    strategyConfig.reconfigIncremental = run.incremental;

    obs::ObsOptions obsOptions;
    cli.applyObsOutputs(obsOptions);
    obsOptions.timeseriesWindowCycles = static_cast<std::uint32_t>(*window);
    if (obsOptions.waitForSamplePeriod == 0) {
      obsOptions.waitForSamplePeriod = 128;
    }
    obs::Observer observer(obsOptions, topo, &ct, strategyConfig.vcCount);
    strategyConfig.observer = &observer;

    sim::WormholeNetwork net(routing.table(), traffic, load, strategyConfig);
    net.run();
    run.drained = net.drainRemaining(200000);
    const sim::RunStats stats = net.collectStats();
    run.verified = stats.reconfigRoutingVerified;

    obs::TimeSeriesCollector& series = *observer.timeseries();
    series.finish(net.now());
    run.events = stats::analyzeRecovery(series);
    const obs::WaitForSampler& waitFor = *observer.waitFor();
    run.cycleSamples = waitFor.cycleSamples();
    run.waitForSamples = waitFor.samples();

    if (!outPrefix->empty()) {
      const std::string base = *outPrefix + "." + run.name;
      {
        std::ofstream out(base + ".timeseries.csv");
        obs::writeTimeSeriesCsv(series, out);
      }
      {
        std::ofstream out(base + ".events.csv");
        stats::writeRecoveryCsv(run.events, out);
      }
      std::cout << "wrote " << base << ".{timeseries,events}.csv\n";
    }
    cli.writeObsArtifacts(observer, &topo, strategyConfig.measureCycles,
                          net.now(), run.name);

    if (!run.drained || !run.verified) ok = false;
    if (run.cycleSamples != 0) ok = false;
    if (schedule.size() > 0 && run.events.empty()) ok = false;
  }

  // Side-by-side transient comparison, one row per fault event.
  std::cout << "\n" << std::left << std::setw(7) << "event" << std::setw(12)
            << "fault_cyc" << std::setw(22) << "reroute full/incr"
            << std::setw(22) << "recover full/incr" << std::setw(20)
            << "dip depth full/incr" << "\n";
  const auto never = [](std::uint64_t v) {
    return v == stats::FaultRecovery::kNever ? std::string("never")
                                             : std::to_string(v);
  };
  const std::size_t eventCount =
      std::min(runs[0].events.size(), runs[1].events.size());
  for (std::size_t i = 0; i < eventCount; ++i) {
    const stats::FaultRecovery& f = runs[0].events[i];
    const stats::FaultRecovery& g = runs[1].events[i];
    std::cout << std::left << std::setw(7) << i << std::setw(12)
              << f.faultCycle << std::setw(22)
              << (never(f.timeToReroute) + " / " + never(g.timeToReroute))
              << std::setw(22)
              << (never(f.timeToRecover) + " / " + never(g.timeToRecover))
              << std::setw(20)
              << (std::to_string(f.dipDepth).substr(0, 6) + " / " +
                  std::to_string(g.dipDepth).substr(0, 6))
              << "\n";
  }
  for (const StrategyRun& run : runs) {
    std::cout << "\n" << run.name << ": drained=" << (run.drained ? "yes" : "NO")
              << " verified=" << (run.verified ? "yes" : "NO")
              << " wait-for samples=" << run.waitForSamples
              << " cycle samples=" << run.cycleSamples
              << (run.cycleSamples == 0 ? " (no deadlock risk observed)"
                                        : " [WAIT-FOR CYCLE OBSERVED]");
  }
  if (gateOptions.enabled) {
    std::cout << "\n\noracle: " << gate.audits() << " audits ("
              << gate.auditsAt("table_build") << " table_build, "
                  << gate.auditsAt("epoch_publish") << " epoch_publish, "
              << gate.auditsAt("mid_reconfig_quarantine") << " quarantine, "
              << gate.auditsAt("mid_reconfig_preswap") << " preswap), "
              << gate.violations() << " violation(s)";
    if (gate.violations() != 0) {
      ok = false;
      std::cout << "\n" << gate.lastViolation().describe();
      if (!gate.lastCasePath().empty()) {
        std::cout << "\nlast replay case: " << gate.lastCasePath();
      }
    }
    if (schedule.size() > 0 &&
        gate.auditsAt("mid_reconfig_quarantine") == 0) {
      std::cout << "\nERROR: faults fired but no mid-reconfiguration "
                   "quarantine state was audited";
      ok = false;
    }
  }
  std::cout << "\n\n(time-to-reroute = fault -> hot-swap; time-to-recover = "
               "fault -> first window back above 95% of the pre-fault "
               "ejection rate; dip depth = 1 - min rate / baseline)\n";
  return ok ? 0 : 1;
}
