// Construction-time benchmark: how long it takes to go from a bare
// irregular topology to a verified DOWN/UP routing table, stage by stage,
// across network sizes — and how much the parallel table build and
// incremental reconfiguration buy over the serial and full builds.
//
// Stages timed per size (best of --repeats runs):
//   tree            coordinated-tree construction (M1 policy)
//   classify        Definition-5 channel-direction classification
//   repair          turn-rule construction + residual-cycle repair
//   release         release pass (one DFS per candidate turn)
//   tableSerial     RoutingTable::build, single thread (bit-parallel
//                   reverse BFS, 64 destinations per sweep)
//   tableParallel   RoutingTable::build over --threads workers
//                   (bit-for-bit identical output)
//   fullSerial      tree -> table end to end, single thread
//   fullParallel    same with the worker pool
//   reconfigFull    fault::Reconfigurator::rebuild after one link failure
//   reconfigIncr    fault::Reconfigurator::rebuildIncremental for the same
//                   failure (inherits the turn rule, rebuilds dirty
//                   destinations only; checked identical to the masked
//                   full build before timing)
//
// Each row also records the table's size (RoutingTable::bytes()) and the
// process's peak RSS once the row is done.  Sizes run in ascending order,
// so a row's peak RSS is the high-water mark its own size drove.
//
// Writes BENCH_build.json (schema in results/README.md; --json or
// DOWNUP_BENCH_BUILD_JSON overrides the path, "" disables) so CI can gate
// on construction-time regressions.
//
// With --counters, each size additionally runs one untimed SERIAL counted
// pass — tree/classify/repair/release/table_build wrapped in spans with a
// perf_event group and allocation attribution attached — and prints a
// per-stage table of cycles, instructions, IPC, cache-miss rate and heap
// charge, naming the stage with the most cache misses.  The counted pass is
// reported separately (stdout table + "counterStages" JSON section) so the
// timed rows above stay comparable across revisions; when perf_event_open
// is denied the table is replaced by "counters unavailable: <reason>",
// never silent zeros.
//
//   ./bench_build --max-switches 1024 --threads 4 --repeats 3
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "core/downup_routing.hpp"
#include "core/release.hpp"
#include "core/repair.hpp"
#include "fault/reconfigure.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "topology/generate.hpp"
// Route the global allocation functions through util::noteAllocation so the
// counted pass can charge heap traffic to stages (single-TU pattern; see
// the header).
#include "util/alloc_hooks.hpp"
#include "util/cli.hpp"
#include "util/perf_counters.hpp"
#include "util/span_recorder.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace downup;
using Clock = std::chrono::steady_clock;

// Folded into every timed result so the optimiser cannot delete the work.
std::uint64_t gSink = 0;
inline void keep(std::uint64_t v) {
  gSink ^= v;
  asm volatile("" : : "g"(&gSink) : "memory");
}

/// Process high-water resident set size in MB (ru_maxrss is in KiB).
double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

template <typename Fn>
double timeMs(int repeats, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

struct SizeResult {
  topo::NodeId switches = 0;
  std::uint32_t links = 0;
  std::uint32_t channels = 0;
  double treeMs = 0;
  double classifyMs = 0;
  double repairMs = 0;
  double releaseMs = 0;
  double tableSerialMs = 0;
  double tableParallelMs = 0;
  double fullSerialMs = 0;
  double fullParallelMs = 0;
  double reconfigFullMs = 0;
  double reconfigIncrMs = 0;
  double incrementalDirtyFraction = 0;
  std::uint32_t rebuiltDestinations = 0;
  std::uint64_t tableBytes = 0;
  double peakRssMb = 0;
};

/// One top-level stage row of the counted pass (taken from the obs_spans/2
/// span the stage recorded).
struct CounterStage {
  const char* stage = nullptr;
  double durMs = 0;
  util::PerfCounts counts;
  std::uint64_t allocCount = 0;
  std::uint64_t allocBytes = 0;
};

struct CounterResult {
  topo::NodeId switches = 0;
  std::vector<CounterStage> stages;
};

/// The serial counted pass: every pipeline stage re-run once under a span
/// with counters + allocation attribution attached.  Untimed and fully
/// separate from the benchmark loops — stage wall-clock here includes the
/// counter reads at span boundaries, which is why these numbers never feed
/// the timed rows.
CounterResult countedPass(topo::NodeId switches, const topo::Topology& topo,
                          const routing::TurnPermissions& released,
                          util::SpanRecorder& counted) {
  {
    util::ScopedSpan span(&counted, "tree");
    util::Rng rng(3);
    const tree::CoordinatedTree t = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, rng);
    keep(t.root());
  }
  util::Rng treeRng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  {
    util::ScopedSpan span(&counted, "classify");
    keep(routing::classifyDownUp(topo, ct).size());
  }
  const routing::DirectionMap dirs = routing::classifyDownUp(topo, ct);
  {
    util::ScopedSpan span(&counted, "repair");
    routing::TurnPermissions perms(topo, dirs, core::downUpTurnSet());
    keep(core::repairTurnCycles(perms).blockedTurns);
  }
  {
    util::ScopedSpan span(&counted, "release");
    routing::TurnPermissions perms = released;  // copy cost inside the span
    keep(core::releaseRedundantProhibitions(perms).releasedTurns);
  }
  // RoutingTable::build records its own "table_build" span (with a nested
  // bfs) on the same recorder.
  keep(routing::RoutingTable::build(released, nullptr, {}, &counted)
           .fingerprint());

  CounterResult res;
  res.switches = switches;
  const auto all = counted.snapshot();
  // Stage rows are the top-level spans; counters there are already
  // inclusive of children, but allocation attribution is exclusive
  // (innermost span), so roll every descendant's charge up into its root
  // — the table answers "what does this STAGE allocate", subtree included.
  std::vector<std::size_t> rootOf(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    rootOf[i] = all[i].parent == util::SpanRecorder::kNoParent
                    ? i
                    : rootOf[all[i].parent];
    if (all[i].depth == 0) {
      CounterStage stage;
      stage.stage = all[i].name;
      stage.durMs = static_cast<double>(all[i].durationNs()) / 1e6;
      stage.counts = all[i].counters;
      res.stages.push_back(stage);
    }
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (CounterStage& stage : res.stages) {
      if (stage.stage == all[rootOf[i]].name) {
        stage.allocCount += all[i].allocCount;
        stage.allocBytes += all[i].allocBytes;
        break;
      }
    }
  }
  counted.clear();
  return res;
}

void printCounterTable(const CounterResult& res) {
  std::printf("\nper-stage counters at %u switches (serial counted pass):\n",
              static_cast<unsigned>(res.switches));
  std::printf("%12s %9s %12s %12s %6s %8s %8s %10s\n", "stage", "ms",
              "cycles", "instr", "ipc", "missRate", "allocs", "allocKiB");
  const CounterStage* topMiss = nullptr;
  for (const CounterStage& s : res.stages) {
    char cycles[24] = "-", instr[24] = "-", ipc[16] = "-", miss[16] = "-";
    if (s.counts.has(util::PerfEvent::kCycles)) {
      std::snprintf(cycles, sizeof cycles, "%llu",
                    static_cast<unsigned long long>(
                        s.counts.get(util::PerfEvent::kCycles)));
    }
    if (s.counts.has(util::PerfEvent::kInstructions)) {
      std::snprintf(instr, sizeof instr, "%llu",
                    static_cast<unsigned long long>(
                        s.counts.get(util::PerfEvent::kInstructions)));
    }
    if (s.counts.ipc() >= 0) {
      std::snprintf(ipc, sizeof ipc, "%.2f", s.counts.ipc());
    }
    if (s.counts.cacheMissRate() >= 0) {
      std::snprintf(miss, sizeof miss, "%.3f", s.counts.cacheMissRate());
    }
    std::printf("%12s %9.2f %12s %12s %6s %8s %8llu %10.1f\n", s.stage,
                s.durMs, cycles, instr, ipc, miss,
                static_cast<unsigned long long>(s.allocCount),
                static_cast<double>(s.allocBytes) / 1024.0);
    if (s.counts.has(util::PerfEvent::kCacheMisses) &&
        (topMiss == nullptr ||
         s.counts.get(util::PerfEvent::kCacheMisses) >
             topMiss->counts.get(util::PerfEvent::kCacheMisses))) {
      topMiss = &s;
    }
  }
  if (topMiss != nullptr) {
    std::printf("top cache-miss stage: %s (%llu misses)\n", topMiss->stage,
                static_cast<unsigned long long>(
                    topMiss->counts.get(util::PerfEvent::kCacheMisses)));
  } else {
    std::printf("top cache-miss stage: unavailable (cache-miss counter did "
                "not open)\n");
  }
}

SizeResult benchOneSize(topo::NodeId switches, util::ThreadPool& pool,
                        int repeats, util::SpanRecorder* spans,
                        util::SpanRecorder* counted,
                        std::vector<CounterResult>* counterResults) {
  SizeResult res;
  res.switches = switches;

  util::Rng topoRng(7);
  const topo::Topology topo =
      topo::randomIrregular(switches, {.maxPorts = 4}, topoRng);
  res.links = topo.linkCount();
  res.channels = topo.channelCount();

  res.treeMs = timeMs(repeats, [&] {
    util::Rng rng(3);
    const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, rng);
    keep(ct.root());
  });

  util::Rng treeRng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);

  res.classifyMs = timeMs(repeats, [&] {
    const routing::DirectionMap dirs = routing::classifyDownUp(topo, ct);
    keep(dirs.size());
  });
  const routing::DirectionMap dirs = routing::classifyDownUp(topo, ct);

  res.repairMs = timeMs(repeats, [&] {
    routing::TurnPermissions perms(topo, dirs, core::downUpTurnSet());
    keep(core::repairTurnCycles(perms).blockedTurns);
  });

  // Master repaired rule; the release stage times only the pass itself on a
  // fresh copy each repeat.
  routing::TurnPermissions repaired(topo, dirs, core::downUpTurnSet());
  core::repairTurnCycles(repaired);

  res.releaseMs = timeMs(repeats, [&] {
    routing::TurnPermissions perms = repaired;
    keep(core::releaseRedundantProhibitions(perms).releasedTurns);
  });

  routing::TurnPermissions released = repaired;
  core::releaseRedundantProhibitions(released);

  res.tableSerialMs = timeMs(repeats, [&] {
    keep(routing::RoutingTable::build(released).fingerprint());
  });
  res.tableBytes = routing::RoutingTable::build(released).bytes();
  res.tableParallelMs = timeMs(repeats, [&] {
    keep(routing::RoutingTable::build(released, &pool).fingerprint());
  });

  res.fullSerialMs = timeMs(repeats, [&] {
    util::Rng rng(3);
    const tree::CoordinatedTree t = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, rng);
    keep(core::buildDownUp(topo, t).table().fingerprint());
  });
  res.fullParallelMs = timeMs(repeats, [&] {
    util::Rng rng(3);
    const tree::CoordinatedTree t = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, rng);
    keep(core::buildDownUp(topo, t, {.pool = &pool}).table().fingerprint());
  });

  // Reconfiguration after one non-partitioning link failure: full rebuild
  // vs the incremental path, from the same healthy previous epoch.  The
  // failed link is the sampled link with the LOWEST dirty fraction that
  // does not partition the network — the cross-link case the incremental
  // path is designed for.  Tree-link failures usually trip the
  // connectivity fallback (the inherited rule cannot serve the severed
  // subtree) and cost a full rebuild plus the applicability checks; the
  // JSON's incrementalDirtyFraction field discloses which case this run
  // measured, and exp_fault_resilience measures the aggregate over random
  // failures.
  const fault::Reconfigurator reconfigurator(topo, &pool);
  const std::vector<std::uint8_t> nodesUp(topo.nodeCount(), 1);
  std::vector<std::uint8_t> linksUp(topo.linkCount(), 1);
  const fault::ReconfigOutcome healthy =
      reconfigurator.rebuild(linksUp, nodesUp);
  {
    const topo::LinkId linkCount = topo.linkCount();
    const topo::LinkId stride = std::max<topo::LinkId>(1, linkCount / 64);
    std::vector<std::pair<double, topo::LinkId>> sampled;
    for (topo::LinkId l = 0; l < linkCount; l += stride) {
      linksUp[l] = 0;
      sampled.emplace_back(reconfigurator.incrementalDirtyFraction(
                               *healthy.table, linksUp, nodesUp),
                           l);
      linksUp[l] = 1;
    }
    std::sort(sampled.begin(), sampled.end());
    for (const auto& [fraction, l] : sampled) {
      linksUp[l] = 0;
      const fault::ReconfigOutcome probe =
          reconfigurator.rebuild(linksUp, nodesUp);
      if (probe.ok() && probe.components == 1) break;  // keep this failure
      linksUp[l] = 1;
    }
  }

  res.incrementalDirtyFraction = reconfigurator.incrementalDirtyFraction(
      *healthy.table, linksUp, nodesUp);
  {
    // Sanity: the incremental epoch must match the masked full build of the
    // inherited rule bit for bit (also exercised by the unit tests; cheap
    // to re-assert here where ASan sweeps run the 4096-switch sizes).
    const fault::ReconfigOutcome incr =
        reconfigurator.rebuildIncremental(*healthy.table, linksUp, nodesUp);
    res.rebuiltDestinations = incr.rebuiltDestinations;
    if (incr.incremental) {
      std::vector<std::uint64_t> alive((topo.channelCount() + 63) / 64, 0);
      for (topo::ChannelId c = 0; c < topo.channelCount(); ++c) {
        if (linksUp[topo::Topology::linkOf(c)] != 0) {
          alive[c >> 6] |= std::uint64_t{1} << (c & 63);
        }
      }
      const routing::RoutingTable masked =
          routing::RoutingTable::build(*incr.perms, &pool, alive);
      if (!incr.table->identicalTo(masked)) {
        std::fprintf(stderr,
                     "bench_build: incremental table mismatch at %u switches\n",
                     static_cast<unsigned>(switches));
        std::exit(1);
      }
    }
  }

  res.reconfigFullMs = timeMs(repeats, [&] {
    keep(reconfigurator.rebuild(linksUp, nodesUp).rebuiltDestinations);
  });
  res.reconfigIncrMs = timeMs(repeats, [&] {
    keep(reconfigurator
                 .rebuildIncremental(*healthy.table, linksUp, nodesUp)
                 .rebuiltDestinations);
  });

  // One untimed instrumented pass per size: record the full rebuild and the
  // incremental reconfiguration stage spans outside the timed loops so the
  // timings above stay undisturbed.
  if (spans != nullptr) {
    keep(routing::RoutingTable::build(released, &pool, {}, spans)
             .fingerprint());
    fault::Reconfigurator traced(topo, &pool);
    traced.setSpans(spans);
    keep(traced.rebuild(linksUp, nodesUp).rebuiltDestinations);
    keep(traced.rebuildIncremental(*healthy.table, linksUp, nodesUp)
             .rebuiltDestinations);
  }

  // The counted pass last, also outside every timed loop: the per-stage
  // counter table is attribution data, not a timing row.
  if (counted != nullptr) {
    CounterResult cr = countedPass(switches, topo, released, *counted);
    printCounterTable(cr);
    counterResults->push_back(std::move(cr));
  }
  res.peakRssMb = peakRssMb();
  return res;
}

/// Counter availability as the JSON status string (mirrors obs_spans/2
/// meta): "available", "partial", "unavailable" or "detached".
const char* counterStatus(const util::PerfCounterGroup* group) {
  if (group == nullptr) return "detached";
  if (!group->available()) return "unavailable";
  return group->eventMask() == ((1u << util::kPerfEventCount) - 1u)
             ? "available"
             : "partial";
}

void writeJson(const char* path, const std::vector<SizeResult>& results,
               int threads, int repeats,
               const std::vector<CounterResult>& counterResults,
               const util::PerfCounterGroup* group) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_build: cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_build\",\n");
  std::fprintf(out, "  \"gitRev\": \"%s\",\n", obs::gitRevision().c_str());
  std::fprintf(out, "  \"timestampUtc\": \"%s\",\n",
               obs::utcTimestamp().c_str());
  std::fprintf(out, "  \"hardwareConcurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"threads\": %d,\n", threads);
  std::fprintf(out, "  \"repeats\": %d,\n", repeats);
  std::fprintf(out, "  \"sizes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(out,
                 "    {\"switches\": %u, \"links\": %u, \"channels\": %u,\n",
                 static_cast<unsigned>(r.switches), r.links, r.channels);
    std::fprintf(out, "     \"treeMs\": %.3f, \"classifyMs\": %.3f, "
                      "\"repairMs\": %.3f,\n",
                 r.treeMs, r.classifyMs, r.repairMs);
    std::fprintf(out, "     \"releaseMs\": %.3f,\n", r.releaseMs);
    std::fprintf(out,
                 "     \"tableSerialMs\": %.3f, \"tableParallelMs\": %.3f,\n",
                 r.tableSerialMs, r.tableParallelMs);
    std::fprintf(out,
                 "     \"fullSerialMs\": %.3f, \"fullParallelMs\": %.3f,\n",
                 r.fullSerialMs, r.fullParallelMs);
    std::fprintf(out,
                 "     \"reconfigFullMs\": %.3f, \"reconfigIncrMs\": %.3f,\n",
                 r.reconfigFullMs, r.reconfigIncrMs);
    std::fprintf(out,
                 "     \"incrementalDirtyFraction\": %.4f, "
                 "\"rebuiltDestinations\": %u,\n",
                 r.incrementalDirtyFraction, r.rebuiltDestinations);
    std::fprintf(out, "     \"tableBytes\": %llu, \"peakRssMb\": %.1f}%s\n",
                 static_cast<unsigned long long>(r.tableBytes), r.peakRssMb,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // Counted-pass attribution, kept apart from the timed rows above so the
  // timings stay comparable across revisions.  Events that did not open
  // are simply absent from each stage object.
  std::fprintf(out, "  \"counters\": \"%s\",\n", counterStatus(group));
  if (group != nullptr && !group->degradedReason().empty()) {
    std::fprintf(out, "  \"countersReason\": \"%s\",\n",
                 group->degradedReason().c_str());
  }
  std::fprintf(out, "  \"counterStages\": [");
  bool firstStage = true;
  for (const CounterResult& cr : counterResults) {
    for (const CounterStage& s : cr.stages) {
      std::fprintf(out, "%s\n    {\"switches\": %u, \"stage\": \"%s\", "
                        "\"durMs\": %.3f",
                   firstStage ? "" : ",", static_cast<unsigned>(cr.switches),
                   s.stage, s.durMs);
      firstStage = false;
      for (std::size_t e = 0; e < util::kPerfEventCount; ++e) {
        const auto event = static_cast<util::PerfEvent>(e);
        if (!s.counts.has(event)) continue;
        std::fprintf(out, ", \"%s\": %llu", util::toString(event),
                     static_cast<unsigned long long>(s.counts.get(event)));
      }
      if (s.counts.ipc() >= 0) {
        std::fprintf(out, ", \"ipc\": %.4f", s.counts.ipc());
      }
      if (s.counts.cacheMissRate() >= 0) {
        std::fprintf(out, ", \"cacheMissRate\": %.4f",
                     s.counts.cacheMissRate());
      }
      std::fprintf(out, ", \"allocCount\": %llu, \"allocBytes\": %llu}",
                   static_cast<unsigned long long>(s.allocCount),
                   static_cast<unsigned long long>(s.allocBytes));
    }
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("bench_build: wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_build",
                "routing-construction benchmark: per-stage timings, serial "
                "vs parallel, full vs incremental reconfiguration");
  const unsigned hw = std::thread::hardware_concurrency();
  auto threads = cli.positiveOption<int>(
      "threads", static_cast<int>(hw == 0 ? 1 : hw),
      "worker threads for the parallel stages");
  auto maxSwitches = cli.positiveOption<int>(
      "max-switches", 1024, "largest network size in the sweep (up to 8192)");
  auto minSwitches = cli.positiveOption<int>(
      "min-switches", 64, "smallest network size in the sweep");
  auto repeats = cli.positiveOption<int>(
      "repeats", 3, "timed repetitions per stage (best is reported)");
  auto jsonOpt = cli.option<std::string>(
      "json", "",
      "JSON output path (default BENCH_build.json or "
      "$DOWNUP_BENCH_BUILD_JSON; \"\" with the env var disables)");
  auto spansOpt = cli.option<std::string>(
      "spans-out", "",
      "control-plane span path prefix (.{jsonl,trace.json} appended); "
      "records one untimed instrumented build + reconfiguration per size");
  auto countersFlag = cli.flag(
      "counters",
      "per-stage perf-counter + allocation table from one untimed serial "
      "counted pass per size (prints availability when perf_event_open is "
      "denied)");
  cli.parse(argc, argv);

  std::string jsonPath = *jsonOpt;
  if (jsonPath.empty()) {
    const char* env = std::getenv("DOWNUP_BENCH_BUILD_JSON");
    jsonPath = env != nullptr ? env : "BENCH_build.json";
  }

  util::ThreadPool pool(static_cast<std::size_t>(*threads));
  util::SpanRecorder spans;
  util::SpanRecorder* spansPtr = spansOpt->empty() ? nullptr : &spans;

  // The counted pass gets its own recorder: counters + allocation
  // attribution must not leak into the --spans-out trace, whose timings
  // document the uncounted pipeline.
  util::PerfCounterGroup counterGroup(
      util::PerfCounterGroup::Options{.disabled = !*countersFlag});
  util::SpanRecorder countedSpans;
  util::SpanRecorder* countedPtr = nullptr;
  if (*countersFlag) {
    if (counterGroup.available()) {
      countedSpans.attachCounters(&counterGroup);
      if (!counterGroup.degradedReason().empty()) {
        std::printf("counters partial (%s): wall-clock and software events "
                    "only\n",
                    counterGroup.degradedReason().c_str());
      }
    } else {
      std::printf("counters unavailable: %s (reporting wall-clock and "
                  "allocation only)\n",
                  counterGroup.unavailableReason().c_str());
    }
    countedSpans.setAllocTracking(true);
    countedPtr = &countedSpans;
  }
  std::vector<CounterResult> counterResults;
  std::vector<SizeResult> results;
  std::printf("%8s %8s %9s %9s %9s %9s %9s %9s %9s %9s %9s\n", "switches",
              "tree", "repair", "rel", "tblSer", "tblPar", "fullSer",
              "rcfgFull", "rcfgIncr", "tblMiB", "rssMB");
  for (const int size : {64, 128, 256, 512, 1024, 2048, 4096, 8192}) {
    if (size < *minSwitches || size > *maxSwitches) continue;
    const SizeResult r =
        benchOneSize(static_cast<topo::NodeId>(size), pool, *repeats,
                     spansPtr, countedPtr, &counterResults);
    std::printf(
        "%8u %8.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.1f %9.1f\n",
        static_cast<unsigned>(r.switches), r.treeMs, r.repairMs, r.releaseMs,
        r.tableSerialMs, r.tableParallelMs, r.fullSerialMs, r.reconfigFullMs,
        r.reconfigIncrMs, static_cast<double>(r.tableBytes) / 1048576.0,
        r.peakRssMb);
    std::fflush(stdout);
    results.push_back(r);
  }
  std::printf("(milliseconds, best of %d; %d thread%s; tblMiB = table "
              "bytes, rssMB = peak RSS after the row)\n",
              *repeats, *threads, *threads == 1 ? "" : "s");

  if (!jsonPath.empty()) {
    writeJson(jsonPath.c_str(), results, *threads, *repeats, counterResults,
              *countersFlag ? &counterGroup : nullptr);
  }
  if (spansPtr != nullptr) {
    {
      std::ofstream out(*spansOpt + ".jsonl");
      obs::writeSpansJsonl(spans, out);
    }
    {
      std::ofstream out(*spansOpt + ".trace.json");
      obs::writeSpansChromeTrace(spans, out);
    }
    std::printf("bench_build: wrote %s.{jsonl,trace.json}\n",
                spansOpt->c_str());
  }
  return 0;
}
