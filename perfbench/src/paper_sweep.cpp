// paper_sweep: the paper's reproduction methodology at 64 switches.
//
// Why this workload: it is what a reproduction user runs.  The simulator
// does nearly all the work; fault handling and the fabric service do none,
// and the 64-switch routing tables stay cache-resident.
//
// Set-up (topologies, trees, routing construction of every sample) is
// timed on its own, several times.  One round is then one full sweep pass:
// set-up again, the saturation probes when the grid is probe-sized, and
// every load-point simulation of every (ports, sample, tree, algorithm)
// cell, then aggregation.  The paper's shape verdicts and the reference
// digest are checked after the passes.  Light operations are the
// simulations at each cell's lowest load (its zero-load latency point),
// heavy ones those at its peak-throughput load; every cell contributes one
// of each, so the mix does not depend on where a seed's cells saturate.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "core/downup_routing.hpp"
#include "report.hpp"
#include "sim/engine.hpp"
#include "stats/compare.hpp"
#include "stats/metrics.hpp"
#include "stats/sweep.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "walk.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace downup;

namespace {

/// stats::runExperiment's per-run seed derivation (the benchmark must feed
/// identical seeds to the same public calls to reproduce its cells).
std::uint64_t mixSeed(std::uint64_t base, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c = 0, std::uint64_t d = 0) {
  util::SplitMix64 sm(base ^ (a * 0x9e3779b97f4a7c15ULL) ^
                      (b * 0xbf58476d1ce4e5b9ULL) ^
                      (c * 0x94d049bb133111ebULL) ^ (d + 1));
  return sm.next();
}

/// Everything one (ports, sample) topology needs before simulation.  Held
/// by pointer: routings reference the topology by address.
struct SampleSetup {
  unsigned ports = 0;
  unsigned sample = 0;
  topo::Topology topo{0};
  std::vector<tree::CoordinatedTree> trees;               // per policy
  std::vector<std::unique_ptr<routing::Routing>> routings;  // policy x algo
  // Sample 0 only: the saturation probe's own tree and routing.
  std::unique_ptr<tree::CoordinatedTree> probeTree;
  std::unique_ptr<routing::Routing> probeRouting;
};

/// The untraced simulations of one load point of the grid, summed.
struct GridPoint {
  std::size_t sims = 0;
  double ms = 0.0;
  double cpuS = 0.0;
  double cycles = 0.0;
};

/// One (ports, sample, policy, algorithm) cell's sweep outcome.
struct CellRun {
  std::vector<stats::SweepPoint> sweep;
  stats::PaperMetrics metrics;
  std::vector<SimSample> sims;
};

void buildSample(const stats::ExperimentConfig& config, SampleSetup& s,
                 util::SpanRecorder* spans) {
  {
    util::ScopedSpan span(spans, "topology.generate");
    util::Rng topoRng(mixSeed(config.baseSeed, s.ports, s.sample, 1));
    s.topo = topo::randomIrregular(config.switches, {.maxPorts = s.ports},
                                   topoRng);
  }
  for (const tree::TreePolicy policy : config.policies) {
    util::ScopedSpan span(spans, "tree.build");
    util::Rng treeRng(mixSeed(config.baseSeed, s.ports, s.sample, 2,
                              static_cast<std::uint64_t>(policy)));
    s.trees.push_back(tree::CoordinatedTree::build(s.topo, policy, treeRng));
  }
  for (std::size_t p = 0; p < config.policies.size(); ++p) {
    for (const core::Algorithm algorithm : config.algorithms) {
      util::ScopedSpan span(spans, "core.build_routing");
      s.routings.push_back(std::make_unique<routing::Routing>(
          core::buildRouting(algorithm, s.topo, s.trees[p])));
    }
  }
  if (s.sample == 0 && config.autoLoadRange) {
    {
      util::ScopedSpan span(spans, "tree.build");
      util::Rng probeTreeRng(mixSeed(config.baseSeed, s.ports, 0, 4));
      s.probeTree = std::make_unique<tree::CoordinatedTree>(
          tree::CoordinatedTree::build(
              s.topo, tree::TreePolicy::kM1SmallestFirst, probeTreeRng));
    }
    util::ScopedSpan span(spans, "core.build_routing");
    s.probeRouting = std::make_unique<routing::Routing>(
        core::buildRouting(core::Algorithm::kDownUp, s.topo, *s.probeTree));
  }
}

std::vector<std::unique_ptr<SampleSetup>> buildSamples(
    const stats::ExperimentConfig& config, util::ThreadPool* pool,
    util::SpanRecorder* spans) {
  std::vector<std::unique_ptr<SampleSetup>> samples;
  {
    util::ScopedSpan span(spans, "other");
    for (const unsigned ports : config.portConfigs) {
      for (unsigned sample = 0; sample < config.samples; ++sample) {
        auto s = std::make_unique<SampleSetup>();
        s->ports = ports;
        s->sample = sample;
        samples.push_back(std::move(s));
      }
    }
  }
  util::parallelFor(pool, samples.size(), [&](std::size_t i) {
    buildSample(config, *samples[i], spans);
  });
  return samples;
}

/// The serial sweep of stats::runSweep, one simulate() call per load so
/// each can be timed; stops by the same SweepOptions rule.
void sweepCell(const routing::RoutingTable& table,
               const sim::TrafficPattern& traffic,
               const std::vector<double>& loads,
               const sim::SimConfig& simConfig, CellRun& run,
               util::SpanRecorder* spans) {
  const stats::SweepOptions options;
  double bestAccepted = 0.0;
  unsigned stagnant = 0;
  for (std::size_t k = 0; k < loads.size(); ++k) {
    stats::SweepPoint point;
    point.offeredLoad = loads[k];
    const double cpu0 = threadCpuSeconds();
    const auto t0 = Clock::now();
    {
      util::ScopedSpan span(spans, "sim.run");
      point.stats = sim::simulate(table, traffic, loads[k], simConfig);
    }
    run.sims.push_back({.ms = msBetween(t0, Clock::now()),
                        .cpuS = threadCpuSeconds() - cpu0,
                        .cycles = point.stats.cycles,
                        .gridIndex = k,
                        .deadlocked = point.stats.deadlocked});
    const double accepted = point.stats.acceptedFlitsPerNodePerCycle;
    run.sweep.push_back(std::move(point));
    if (accepted > bestAccepted * options.improvementFactor) {
      bestAccepted = accepted;
      stagnant = 0;
    } else if (++stagnant >= options.stagnantLimit) {
      break;
    }
    bestAccepted = std::max(bestAccepted, accepted);
  }
}

void hashBytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

void hashStat(std::uint64_t& h, const util::RunningStat& s) {
  const std::uint64_t count = s.count();
  hashBytes(h, &count, sizeof count);
  for (const double v : {s.mean(), s.variance(), s.min(), s.max()}) {
    hashBytes(h, &v, sizeof v);
  }
}

}  // namespace

stats::ExperimentConfig paperSweepConfig(std::uint64_t seed, bool tiny) {
  stats::ExperimentConfig config;
  config.switches = tiny ? 16 : 64;
  // Six topologies per port count: the tail of the simulation times then
  // depends less on which topologies a seed draws.
  config.samples = tiny ? 1 : 6;
  config.loadPoints = tiny ? 4 : 8;
  config.sim.warmupCycles = tiny ? 500 : 3000;
  config.sim.measureCycles = tiny ? 1500 : 12000;
  config.sim.packetLengthFlits = 128;
  // A fixed load grid that brackets saturation at both port counts.  The
  // saturation probe (autoLoadRange) sizes the grid in steps of 1.6x, so the
  // work of a pass would jump between seeds; the paper's claims hold on the
  // fixed grid for every seed tried (0-15).
  config.autoLoadRange = false;
  config.maxLoadPerPort = 0.12;
  config.baseSeed = seed;
  return config;
}

std::uint64_t digestResults(const stats::ExperimentResults& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const stats::Cell& cell : results.cells) {
    const std::uint64_t key[3] = {cell.ports,
                                  static_cast<std::uint64_t>(cell.policy),
                                  static_cast<std::uint64_t>(cell.algorithm)};
    hashBytes(h, key, sizeof key);
    for (const util::RunningStat* s :
         {&cell.nodeUtilization, &cell.trafficLoad, &cell.hotspotPercent,
          &cell.leafUtilization, &cell.maxAccepted, &cell.zeroLoadLatency,
          &cell.avgPathLength}) {
      hashStat(h, *s);
    }
    for (const stats::CurvePoint& point : cell.curve) {
      hashBytes(h, &point.offeredLoad, sizeof point.offeredLoad);
      hashStat(h, point.accepted);
      hashStat(h, point.latency);
    }
  }
  return h;
}

SweepPass runSweepPass(const stats::ExperimentConfig& config,
                       util::ThreadPool* pool, util::SpanRecorder* spans) {
  SweepPass pass;
  util::ScopedSpan cellsSpan(spans, "other");
  pass.results.config = config;
  for (const unsigned ports : config.portConfigs) {
    for (const tree::TreePolicy policy : config.policies) {
      for (const core::Algorithm algorithm : config.algorithms) {
        stats::Cell cell;
        cell.ports = ports;
        cell.policy = policy;
        cell.algorithm = algorithm;
        pass.results.cells.push_back(std::move(cell));
      }
    }
  }
  cellsSpan.close();

  // Set-up: every (ports, sample) topology with its trees and routings.
  const std::vector<std::unique_ptr<SampleSetup>> samples =
      buildSamples(config, pool, spans);

  // Saturation probes: one per port configuration on sample 0.
  const std::size_t portCount = config.portConfigs.size();
  std::vector<std::vector<double>> loads(portCount);
  util::parallelFor(pool, portCount, [&](std::size_t p) {
    const unsigned ports = config.portConfigs[p];
    double top = config.maxLoadPerPort * ports;
    if (config.autoLoadRange) {
      const SampleSetup& s = *samples[p * config.samples];
      const sim::UniformTraffic traffic(s.topo.nodeCount());
      sim::SimConfig probeConfig = config.sim;
      probeConfig.seed = mixSeed(config.baseSeed, ports, 0, 5);
      util::ScopedSpan span(spans, "stats.probe");
      const double probed = stats::probeSaturationLoad(
          s.probeRouting->table(), traffic, probeConfig);
      top = std::min(1.0, 1.8 * probed);
    }
    util::ScopedSpan span(spans, "stats.load_grid");
    loads[p] = stats::loadGrid(top, config.loadPoints);
  });

  // Every cell sweeps on its own; cells fan out across the pool.
  const std::size_t perSample =
      config.policies.size() * config.algorithms.size();
  std::vector<CellRun> runs(samples.size() * perSample);
  util::parallelFor(pool, runs.size(), [&](std::size_t i) {
    const SampleSetup& s = *samples[i / perSample];
    const std::size_t local = i % perSample;
    const std::size_t policyIdx = local / config.algorithms.size();
    const std::size_t algoIdx = local % config.algorithms.size();
    const tree::TreePolicy policy = config.policies[policyIdx];
    const core::Algorithm algorithm = config.algorithms[algoIdx];
    const sim::UniformTraffic traffic(s.topo.nodeCount());
    sim::SimConfig simConfig = config.sim;
    simConfig.seed = mixSeed(config.baseSeed, s.ports, s.sample, 3,
                             static_cast<std::uint64_t>(policy) * 16 +
                                 static_cast<std::uint64_t>(algorithm));
    CellRun& run = runs[i];
    const routing::Routing& routing = *s.routings[local];
    sweepCell(routing.table(), traffic,
              loads[i / perSample / config.samples], simConfig, run, spans);
    if (run.sweep.empty()) return;
    util::ScopedSpan span(spans, "stats.aggregate");
    const stats::Saturation saturation = stats::findSaturation(run.sweep);
    run.sims.front().lowest = true;
    run.sims[saturation.peakIndex].peak = true;
    run.metrics = stats::computePaperMetrics(
        s.topo, s.trees[policyIdx],
        run.sweep[saturation.peakIndex].stats.channelUtilization);
  });

  // Fold in runExperiment's order: ports, then samples, policies,
  // algorithms — RunningStat results depend on insertion order.
  util::ScopedSpan foldSpan(spans, "stats.aggregate");
  for (std::size_t si = 0; si < samples.size(); ++si) {
    const SampleSetup& s = *samples[si];
    for (std::size_t local = 0; local < perSample; ++local) {
      CellRun& run = runs[si * perSample + local];
      pass.sims.insert(pass.sims.end(), run.sims.begin(), run.sims.end());
      if (run.sweep.empty()) continue;
      const std::size_t policyIdx = local / config.algorithms.size();
      const std::size_t algoIdx = local % config.algorithms.size();
      stats::Cell& cell = *pass.results.find(
          s.ports, config.policies[policyIdx], config.algorithms[algoIdx]);
      const stats::Saturation saturation = stats::findSaturation(run.sweep);
      cell.avgPathLength.add(s.routings[local]->table().averagePathLength());
      cell.zeroLoadLatency.add(run.sweep.front().stats.avgLatency);
      cell.maxAccepted.add(saturation.maxAccepted);
      cell.nodeUtilization.add(run.metrics.meanNodeUtilization);
      cell.trafficLoad.add(run.metrics.trafficLoad);
      cell.hotspotPercent.add(run.metrics.hotspotDegreePercent);
      cell.leafUtilization.add(run.metrics.leafUtilization);
      const std::vector<double>& grid =
          loads[si / config.samples];
      if (cell.curve.empty()) {
        cell.curve.resize(grid.size());
        for (std::size_t k = 0; k < grid.size(); ++k) {
          cell.curve[k].offeredLoad = grid[k];
        }
      }
      for (std::size_t k = 0; k < run.sweep.size(); ++k) {
        cell.curve[k].accepted.add(
            run.sweep[k].stats.acceptedFlitsPerNodePerCycle);
        cell.curve[k].latency.add(run.sweep[k].stats.avgLatency);
      }
    }
  }
  return pass;
}

void runPaperSweep(const Options& options, Report& report) {
  const stats::ExperimentConfig config =
      paperSweepConfig(options.seed, options.tiny);
  // One simulation at a time: on a shared host, parallel passes wait on
  // whichever core the host slows, and their wall times spread far more
  // between runs than serial ones do.  The reference run below uses a pool,
  // so the digest check still covers a second worker count.
  util::SpanRecorder recorder;
  // Wall time of the traced passes, measured around them.
  double tracedWindowMs = 0.0;

  // Set-up, timed on its own several times (untraced; traced passes trace
  // their own set-up): a pass's set-up is a small share of it, and the
  // passes are few.
  std::vector<double> setupS;
  for (unsigned k = 0; k < (options.tiny ? 2u : 15u); ++k) {
    const auto t0 = Clock::now();
    const auto samples = buildSamples(config, nullptr, nullptr);
    setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
  }

  std::vector<double> untracedSweepMs, tracedSweepMs, sweepCpuS, lightMs,
      heavyMs;
  double lowNs = 0.0, lowCycles = 0.0, satNs = 0.0, satCycles = 0.0;
  // Untraced simulations per load point of the grid: count, wall ms, CPU
  // seconds and simulated cycles.
  std::vector<GridPoint> grid(config.loadPoints);
  std::uint64_t cyclesPerPass = 0;
  std::uint64_t firstDigest = 0;
  SweepPass last;

  // A traced run needs one untraced and one traced pass at least.
  const unsigned minRounds = options.trace || !options.tiny ? 2 : 1;
  const auto tStart = Clock::now();
  for (unsigned round = 0;
       round < minRounds || msBetween(tStart, Clock::now()) <
                                options.seconds * 1000.0;
       ++round) {
    // Traced runs alternate untraced and traced passes so the tracing
    // overhead is measured on the same process and inputs.
    const bool traced = options.trace && round % 2 == 1;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    SweepPass pass =
        runSweepPass(config, nullptr, traced ? &recorder : nullptr);
    const double wallMs = msBetween(t0, Clock::now());
    const double cpuS = processCpuSeconds() - cpu0;

    std::uint64_t cycles = 0;
    bool deadlockFree = true;
    for (const SimSample& sim : pass.sims) {
      cycles += sim.cycles;
      deadlockFree = deadlockFree && !sim.deadlocked;
      if (!traced) {
        GridPoint& point = grid[sim.gridIndex];
        ++point.sims;
        point.ms += sim.ms;
        point.cpuS += sim.cpuS;
        point.cycles += static_cast<double>(sim.cycles);
      }
      if (!sim.lowest && !sim.peak) continue;
      if (traced) {
        (sim.peak ? satNs : lowNs) += sim.ms * 1e6;
        (sim.peak ? satCycles : lowCycles) += static_cast<double>(sim.cycles);
      } else {
        (sim.peak ? heavyMs : lightMs).push_back(sim.ms);
      }
    }
    report.check(deadlockFree, "no simulation of the sweep deadlocked");
    report.checkedOk(pass.sims.size());
    const std::uint64_t digest = digestResults(pass.results);
    if (round == 0) firstDigest = digest;
    report.check(digest == firstDigest,
                 "simulated statistics identical across passes");
    cyclesPerPass = cycles;

    if (traced) {
      tracedSweepMs.push_back(wallMs);
      tracedWindowMs += wallMs;
    } else {
      untracedSweepMs.push_back(wallMs);
      sweepCpuS.push_back(cpuS);
    }
    last = std::move(pass);
  }

  // Correctness, outside the timed passes.
  const std::vector<stats::ShapeVerdict> verdicts = stats::compareAlgorithms(
      last.results, core::Algorithm::kDownUp, core::Algorithm::kLTurn,
      stats::paperShapeChecks());
  for (const stats::ShapeVerdict& v : verdicts) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "verdict %-22s wins %u losses %u meanRatio %.4f %s",
                  v.metric.c_str(), v.wins, v.losses, v.meanRatio,
                  v.holdsEverywhere() ? "HOLDS" : "mixed");
    report.note(line);
  }
  // At 64 switches and six samples some single (ports, tree) cells lose
  // (HOLDS needs zero losses), so the gate is each claim's direction on the
  // mean ratio over the cells: DOWN/UP beats L-turn on average.  The tiny
  // smoke size (16 switches, one sample) is too small for the claims, so
  // they are reported there but not gated.
  const std::vector<stats::ShapeCheck> checks = stats::paperShapeChecks();
  report.check(verdicts.size() == 5 && checks.size() == 5,
               "five paper shape verdicts evaluated");
  for (std::size_t i = 0; !options.tiny && i < std::min(verdicts.size(),
                                                        checks.size());
       ++i) {
    const double ratio = verdicts[i].meanRatio;
    report.check(checks[i].higherIsBetter ? ratio > 1.0 : ratio < 1.0,
                 "shape claim holds on the mean ratio: " + verdicts[i].metric);
  }
  stats::ExperimentConfig referenceConfig = config;
  referenceConfig.threads = 3;
  const std::uint64_t reference =
      digestResults(stats::runExperiment(referenceConfig));
  char digestLine[128];
  std::snprintf(digestLine, sizeof digestLine,
                "cell digest 0x%016llx (stats::runExperiment at 3 threads: "
                "0x%016llx)",
                static_cast<unsigned long long>(firstDigest),
                static_cast<unsigned long long>(reference));
  report.note(digestLine);
  const std::uint64_t expected =
      options.plant == "wrong-digest" ? ~reference : reference;
  report.check(firstDigest == expected,
               "benchmark cells equal stats::runExperiment's");
  if (!options.expectDigest.empty()) {
    report.check(firstDigest == std::stoull(options.expectDigest, nullptr, 16),
                 "cell digest matches the recorded reference " +
                     options.expectDigest);
  }
  report.header("rounds", std::to_string(untracedSweepMs.size() +
                                         tracedSweepMs.size()));
  report.header("threads", "1 (simulations run one at a time)");
  report.header("cyclesPerPass", std::to_string(cyclesPerPass));

  report.timing("sweep_s (ms)", "ms", untracedSweepMs);
  report.timing("sweep_cpu_s", "s", sweepCpuS);
  report.metric("peak_rss_mb", peakRssMb());
  report.metric("setup_s", report.timing("setup_s", "s", setupS).p50);
  if (!options.trace) {
    report.timing("sim at lowest load", "ms", lightMs);
    report.timing("sim at saturation", "ms", heavyMs);
    report.metric("light_p90_ms", percentile(lightMs, 90.0));
    report.metric("heavy_p90_ms", percentile(heavyMs, 90.0));
    // Over every simulation of every untraced pass, each load point of the
    // grid weighted equally: a cycle near saturation costs about three
    // times one at low load, and how many cells reach each point depends
    // on the seed, so a plain cycles/time ratio would move with the mix.
    double msPerCycle = 0.0, cpuUsPerCycle = 0.0;
    std::size_t points = 0;
    std::string counts;
    for (const GridPoint& point : grid) {
      if (!counts.empty()) counts += ' ';
      counts += std::to_string(point.sims);
      if (point.sims == 0) continue;
      msPerCycle += point.ms / point.cycles;
      cpuUsPerCycle += point.cpuS * 1e6 / point.cycles;
      ++points;
    }
    report.note("untraced simulations per load point: " + counts);
    report.metric("work_per_s",
                  points > 0 ? 1000.0 * points / msPerCycle : 0.0);
    report.metric("cpu_us_per_work",
                  points > 0 ? cpuUsPerCycle / points : 0.0);
    return;
  }

  // Per-layer metrics from the traced passes.
  const SpanAnalysis spans = analyzeSpans(recorder);
  const double tracedPasses = static_cast<double>(tracedSweepMs.size());
  report.metric("topology.generate_ms", spans.medianMs("topology.generate"));
  report.metric("tree.build_ms", spans.medianMs("tree.build"));
  report.metric("core.build_routing_ms",
                spans.medianMs("core.build_routing"));
  report.metric("sim.run_s", spans["sim.run"].totalMs / 1000.0 / tracedPasses);
  report.metric("sim.cycles", static_cast<double>(cyclesPerPass));
  report.metric("sim.ns_per_cycle_low", lowCycles > 0 ? lowNs / lowCycles : 0);
  report.metric("sim.ns_per_cycle_sat", satCycles > 0 ? satNs / satCycles : 0);
  report.metric("stats.self_s",
                spans.totalMsWithPrefix("stats.") / 1000.0 / tracedPasses);
  reconcile(report, spans, tracedWindowMs, tracedSweepMs.size());
  reportTraceOverhead(report, untracedSweepMs, tracedSweepMs);
  report.note("spans: " + writeSpans(recorder, options));

  // Lookup cost on this workload's cache-resident tables: walk every
  // ordered pair on each port configuration's sample-0 M1 DOWN/UP table.
  std::uint64_t hops = 0;
  double walkMs = 0.0;
  bool walksOk = true;
  for (const unsigned ports : config.portConfigs) {
    util::Rng topoRng(mixSeed(config.baseSeed, ports, 0, 1));
    const topo::Topology topo = topo::randomIrregular(
        config.switches, {.maxPorts = ports}, topoRng);
    const tree::TreePolicy m1 = tree::TreePolicy::kM1SmallestFirst;
    util::Rng treeRng(mixSeed(config.baseSeed, ports, 0, 2,
                              static_cast<std::uint64_t>(m1)));
    const tree::CoordinatedTree ct =
        tree::CoordinatedTree::build(topo, m1, treeRng);
    const routing::Routing routing =
        core::buildRouting(core::Algorithm::kDownUp, topo, ct);
    const routing::RoutingTable& table = routing.table();
    const auto t0 = Clock::now();
    for (routing::NodeId s = 0; s < topo.nodeCount(); ++s) {
      for (routing::NodeId d = 0; d < topo.nodeCount(); ++d) {
        if (s == d) continue;
        const int h = walkRoute(table, s, d, s + d, topo.nodeCount());
        walksOk = walksOk && h == table.distance(s, d);
        hops += static_cast<std::uint64_t>(h > 0 ? h : 0);
      }
    }
    walkMs += msBetween(t0, Clock::now());
  }
  report.check(walksOk, "every walk on the sweep's tables is minimal");
  report.metric("routing.hops_walked", static_cast<double>(hops));
  report.metric("routing.lookup_ns",
                hops > 0 ? walkMs * 1e6 / static_cast<double>(hops) : 0.0);
}

}  // namespace perfbench
