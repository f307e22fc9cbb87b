// Microbenchmarks (google-benchmark) for the construction-time pieces:
// topology generation, coordinated-tree construction, direction
// classification, the ADDG-based turn rule, the release and repair passes,
// routing-table construction, and raw simulator cycle throughput.
//
// On top of the google-benchmark registrations, main() first runs a fixed
// scenario suite (simulator cycles/sec at near-idle, mid-load and
// near-saturation offered loads on the 128-switch reference topology) and
// writes the results to BENCH_micro.json — machine-readable, with the git
// revision and a UTC timestamp — so the perf trajectory is tracked across
// PRs.  Set DOWNUP_BENCH_JSON to change the output path ("" disables).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "core/downup_routing.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "routing/cdg.hpp"
#include "routing/path_analysis.hpp"
#include "routing/verify.hpp"
#include "sim/network.hpp"
#include "topology/generate.hpp"
#include "util/cli.hpp"
#include "util/perf_counters.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace downup;

// Set from --threads in main() before the benchmarks run; the
// construction benchmarks route their table builds through it.
util::ThreadPool* gBuildPool = nullptr;

topo::Topology makeTopology(std::int64_t switches, unsigned ports,
                            std::uint64_t seed = 7) {
  util::Rng rng(seed);
  return topo::randomIrregular(static_cast<topo::NodeId>(switches),
                               {.maxPorts = ports}, rng);
}

void BM_RandomIrregular(benchmark::State& state) {
  for (auto _ : state) {
    util::Rng rng(11);
    benchmark::DoNotOptimize(
        topo::randomIrregular(static_cast<topo::NodeId>(state.range(0)),
                              {.maxPorts = 4}, rng));
  }
}
BENCHMARK(BM_RandomIrregular)->Arg(32)->Arg(128)->Arg(512);

void BM_CoordinatedTree(benchmark::State& state) {
  const topo::Topology topo = makeTopology(state.range(0), 4);
  for (auto _ : state) {
    util::Rng rng(3);
    benchmark::DoNotOptimize(tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, rng));
  }
}
BENCHMARK(BM_CoordinatedTree)->Arg(128)->Arg(512);

void BM_ClassifyDownUp(benchmark::State& state) {
  const topo::Topology topo = makeTopology(state.range(0), 8);
  util::Rng rng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::classifyDownUp(topo, ct));
  }
}
BENCHMARK(BM_ClassifyDownUp)->Arg(128)->Arg(512);

void BM_BuildDownUpComplete(benchmark::State& state) {
  const topo::Topology topo = makeTopology(state.range(0), 4);
  util::Rng rng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::buildDownUp(topo, ct, {.pool = gBuildPool}));
  }
}
BENCHMARK(BM_BuildDownUpComplete)->Arg(32)->Arg(128);

void BM_Release(benchmark::State& state) {
  const topo::Topology topo = makeTopology(state.range(0), 4);
  util::Rng rng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  const routing::DirectionMap dirs = routing::classifyDownUp(topo, ct);
  for (auto _ : state) {
    routing::TurnPermissions perms(topo, dirs, core::downUpTurnSet());
    core::repairTurnCycles(perms);
    benchmark::DoNotOptimize(core::releaseRedundantProhibitions(perms));
  }
}
BENCHMARK(BM_Release)->Arg(32)->Arg(128);

void BM_RoutingTable(benchmark::State& state) {
  const topo::Topology topo = makeTopology(state.range(0), 4);
  util::Rng rng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  routing::TurnPermissions perms(topo, routing::classifyDownUp(topo, ct),
                                 core::downUpTurnSet());
  core::repairTurnCycles(perms);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::RoutingTable::build(perms));
  }
}
BENCHMARK(BM_RoutingTable)->Arg(32)->Arg(128);

void BM_CdgAcyclicityCheck(benchmark::State& state) {
  const topo::Topology topo = makeTopology(state.range(0), 4);
  util::Rng rng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  routing::TurnPermissions perms(topo, routing::classifyDownUp(topo, ct),
                                 core::downUpTurnSet());
  core::repairTurnCycles(perms);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::checkChannelDependencies(perms));
  }
}
BENCHMARK(BM_CdgAcyclicityCheck)->Arg(128)->Arg(512);

void BM_PathAnalysis(benchmark::State& state) {
  const topo::Topology topo = makeTopology(state.range(0), 4);
  util::Rng rng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  const routing::Routing routing = core::buildDownUp(topo, ct);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::analyzePaths(routing.table()));
  }
}
BENCHMARK(BM_PathAnalysis)->Arg(64)->Arg(128);

void BM_VerifyRouting(benchmark::State& state) {
  const topo::Topology topo = makeTopology(state.range(0), 4);
  util::Rng rng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  const routing::Routing routing = core::buildDownUp(topo, ct);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::verifyRouting(routing));
  }
}
BENCHMARK(BM_VerifyRouting)->Arg(64)->Arg(128);

void BM_SimulatorCycles(benchmark::State& state) {
  const topo::Topology topo = makeTopology(128, 4);
  util::Rng rng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  const routing::Routing routing = core::buildDownUp(topo, ct);
  const sim::UniformTraffic traffic(topo.nodeCount());
  sim::SimConfig config;
  config.packetLengthFlits = 128;
  config.warmupCycles = 0;
  config.measureCycles = 1u << 30;  // run() is not used; we step manually
  sim::WormholeNetwork net(routing.table(), traffic, 0.1, config);
  for (auto _ : state) {
    net.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorCycles);

// --- BENCH_micro.json scenario suite ---

constexpr int kScenarioWarmSteps = 20000;   // reach the steady state
constexpr int kScenarioTimedSteps = 200000;

struct Scenario {
  const char* name;
  double offeredLoad;  // flits/node/cycle
};

constexpr Scenario kScenarios[] = {
    {"near_idle", 0.002},
    {"mid_load", 0.05},
    {"near_saturation", 0.10},  // saturation probes at ~0.105 on this topo
};

double scenarioCyclesPerSec(const routing::Routing& routing,
                            const sim::TrafficPattern& traffic, double load,
                            obs::Observer* observer = nullptr) {
  sim::SimConfig config;
  config.packetLengthFlits = 128;
  config.warmupCycles = 0;
  config.measureCycles = 1u << 30;  // stepped manually
  config.observer = observer;
  sim::WormholeNetwork net(routing.table(), traffic, load, config);
  for (int i = 0; i < kScenarioWarmSteps; ++i) net.step();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kScenarioTimedSteps; ++i) net.step();
  const auto t1 = std::chrono::steady_clock::now();
  return kScenarioTimedSteps / std::chrono::duration<double>(t1 - t0).count();
}

// Counted phase attribution runs far fewer steps than the throughput
// scenarios: the counted path reads the perf group five times per cycle,
// which is measurement infrastructure, not simulator speed — the section
// answers "which phase is low-IPC / cache-bound", not "how fast".
constexpr int kCountedWarmSteps = 2000;
constexpr int kCountedTimedSteps = 20000;

/// Per-phase wall-clock + counter attribution for one scenario, written as
/// one JSON object on `out`.  Uses the engine's counted phase path when the
/// group is available and degrades to wall-clock-only attribution (the
/// plain profiled path) otherwise.
void writePhaseCounterScenario(std::FILE* out, const char* name, double load,
                               const routing::Routing& routing,
                               const topo::Topology& topo,
                               const tree::CoordinatedTree& ct,
                               const sim::TrafficPattern& traffic,
                               util::PerfCounterGroup& group, bool last) {
  obs::Observer observer({.profilePhases = true}, topo, &ct);
  observer.profiler()->attachCounters(&group);
  sim::SimConfig config;
  config.packetLengthFlits = 128;
  config.warmupCycles = 0;
  config.measureCycles = 1u << 30;  // stepped manually
  config.observer = &observer;
  sim::WormholeNetwork net(routing.table(), traffic, load, config);
  for (int i = 0; i < kCountedWarmSteps; ++i) net.step();
  observer.profiler()->reset();
  for (int i = 0; i < kCountedTimedSteps; ++i) net.step();

  const obs::PhaseProfiler& profiler = *observer.profiler();
  std::fprintf(out, "      {\"name\": \"%s\", \"offeredLoad\": %g, "
                    "\"cycles\": %llu, \"phases\": [",
               name, load,
               static_cast<unsigned long long>(profiler.cycles()));
  for (std::uint8_t p = 0; p < obs::PhaseProfiler::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::PhaseProfiler::Phase>(p);
    const util::PerfCounts counts = profiler.phaseCounts(phase);
    std::fprintf(out, "%s\n        {\"phase\": \"%s\", \"totalNs\": %llu",
                 p == 0 ? "" : ",", obs::PhaseProfiler::toString(phase),
                 static_cast<unsigned long long>(profiler.phaseNanos(phase)));
    for (std::size_t e = 0; e < util::kPerfEventCount; ++e) {
      const auto event = static_cast<util::PerfEvent>(e);
      if (!counts.has(event)) continue;
      std::fprintf(out, ", \"%s\": %llu", util::toString(event),
                   static_cast<unsigned long long>(counts.get(event)));
    }
    if (counts.ipc() >= 0) {
      std::fprintf(out, ", \"ipc\": %.4f", counts.ipc());
    }
    if (counts.cacheMissRate() >= 0) {
      std::fprintf(out, ", \"cacheMissRate\": %.4f", counts.cacheMissRate());
    }
    std::fprintf(out, "}");
    char ipcText[16] = "-";
    if (counts.ipc() >= 0) {
      std::snprintf(ipcText, sizeof ipcText, "%.2f", counts.ipc());
    }
    std::printf("bench_micro phase %-16s %-14s %8.1f ns/cycle  ipc %s\n",
                name, obs::PhaseProfiler::toString(phase),
                static_cast<double>(profiler.phaseNanos(phase)) /
                    static_cast<double>(profiler.cycles() == 0
                                            ? 1
                                            : profiler.cycles()),
                ipcText);
  }
  std::fprintf(out, "\n      ]}%s\n", last ? "" : ",");
}

void writeScenarioJson(const char* path) {
  const topo::Topology topo = makeTopology(128, 4);
  util::Rng rng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  const routing::Routing routing = core::buildDownUp(topo, ct);
  const sim::UniformTraffic traffic(topo.nodeCount());

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_micro.scenarios\",\n");
  std::fprintf(out, "  \"gitRev\": \"%s\",\n", obs::gitRevision().c_str());
  std::fprintf(out, "  \"timestampUtc\": \"%s\",\n",
               obs::utcTimestamp().c_str());
  std::fprintf(out,
               "  \"methodology\": {\"switches\": 128, \"maxPorts\": 4, "
               "\"packetLengthFlits\": 128, \"warmSteps\": %d, "
               "\"timedSteps\": %d},\n",
               kScenarioWarmSteps, kScenarioTimedSteps);
  std::fprintf(out, "  \"scenarios\": [\n");
  for (const Scenario& scenario : kScenarios) {
    const double cps =
        scenarioCyclesPerSec(routing, traffic, scenario.offeredLoad);
    std::printf("bench_micro %-24s %12.0f cycles/sec\n", scenario.name, cps);
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"offeredLoad\": %g, "
                 "\"cyclesPerSec\": %.0f},\n",
                 scenario.name, scenario.offeredLoad, cps);
  }
  // Near-saturation rerun with the full time-resolved observer attached
  // (metrics + windowed time series with per-channel counts + wait-for
  // sampling): tracks the enabled-path overhead next to the bare number.
  {
    const double load = kScenarios[std::size(kScenarios) - 1].offeredLoad;
    obs::Observer observer({.metrics = true,
                            .timeseriesWindowCycles = 1024,
                            .timeseriesPerChannel = true,
                            .waitForSamplePeriod = 128},
                           topo, &ct);
    const double cps = scenarioCyclesPerSec(routing, traffic, load, &observer);
    std::printf("bench_micro %-24s %12.0f cycles/sec\n",
                "near_saturation_observed", cps);
    std::fprintf(out,
                 "    {\"name\": \"near_saturation_observed\", "
                 "\"offeredLoad\": %g, \"cyclesPerSec\": %.0f}\n",
                 load, cps);
  }
  std::fprintf(out, "  ],\n");
  // Per-phase counter attribution near idle vs near saturation: which
  // engine phase is low-IPC / cache-bound as load rises (ROADMAP item 4's
  // SoA-layout question).  Availability is always spelled out so a
  // PMU-less container reports wall-clock attribution, not silent zeros.
  {
    util::PerfCounterGroup group;
    const char* status = !group.available() ? "unavailable"
                         : group.eventMask() ==
                                 ((1u << util::kPerfEventCount) - 1u)
                             ? "available"
                             : "partial";
    std::fprintf(out, "  \"phaseCounters\": {\n    \"counters\": \"%s\",\n",
                 status);
    if (!group.degradedReason().empty()) {
      std::fprintf(out, "    \"countersReason\": \"%s\",\n",
                   group.degradedReason().c_str());
    }
    if (!group.available()) {
      std::printf("bench_micro: counters unavailable: %s (phase attribution "
                  "is wall-clock only)\n",
                  group.unavailableReason().c_str());
    } else if (!group.degradedReason().empty()) {
      std::printf("bench_micro: counters partial (%s)\n",
                  group.degradedReason().c_str());
    }
    std::fprintf(out, "    \"methodology\": {\"warmSteps\": %d, "
                      "\"timedSteps\": %d},\n    \"scenarios\": [\n",
                 kCountedWarmSteps, kCountedTimedSteps);
    writePhaseCounterScenario(out, "near_idle", kScenarios[0].offeredLoad,
                              routing, topo, ct, traffic, group, false);
    writePhaseCounterScenario(out, "near_saturation",
                              kScenarios[std::size(kScenarios) - 1].offeredLoad,
                              routing, topo, ct, traffic, group, true);
    std::fprintf(out, "    ]\n  }\n");
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("bench_micro: wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* jsonPath = std::getenv("DOWNUP_BENCH_JSON");
  if (jsonPath == nullptr) jsonPath = "BENCH_micro.json";
  if (jsonPath[0] != '\0') writeScenarioJson(jsonPath);

  // benchmark::Initialize consumes the --benchmark_* flags and compacts
  // argv; whatever is left (e.g. --threads) goes through util::Cli.
  benchmark::Initialize(&argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  downup::util::Cli cli("bench_micro",
                        "construction + simulator microbenchmarks");
  auto threads = cli.positiveOption<int>(
      "threads", static_cast<int>(hw == 0 ? 1 : hw),
      "worker threads for the table-construction benchmarks");
  cli.parse(argc, argv);
  const auto pool = std::make_unique<downup::util::ThreadPool>(
      static_cast<std::size_t>(*threads));
  gBuildPool = pool.get();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
