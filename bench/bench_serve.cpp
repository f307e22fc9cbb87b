// Serving benchmark: route lookups as a concurrent service under fault
// churn.  N reader threads hammer FabricManager's lock-free snapshot path
// (pin -> lookups -> unpin) while an injector thread drives a seeded
// FaultSchedule through a FaultController whose transitions feed the
// fabric's service thread — rebuilds, coalescing and epoch swaps all happen
// live under the readers.
//
// Reported (one JSON row, schema in results/README.md):
//   lookupsPerSec           read-path throughput over the whole serve span
//   lookupP50Ns/P99Ns       per-lookup latency quantiles (timed subsample)
//   acquireP99Ns            pin-acquisition latency quantiles
//   epochSwapStallMaxNs     max reader-visible acquire gap (swap stall)
//   lookupsDuringReconfig   lookups completed while a rebuild was in flight
//                           (nonzero = reads proceed during reconfiguration)
//   rebuilds/rebuildsSkipped/transitionsAbsorbed/rebuildsCoalesced
//                           coalescing effectiveness (flap cancel-outs,
//                           burst folding)
//   retireDepthMax          retired-snapshot list high-water mark
//   snapshotBytes           RoutingTable::bytes() of the final epoch's
//                           table: what each published snapshot holds
//   snapshotLifetimeP50Ns/P99Ns
//                           publish -> reclaim lifetime per retired epoch
//   fabricMetrics           full FabricMetrics JSON object (histograms +
//                           coalescing ledger)
//
// Writes BENCH_serve.json (--json or $DOWNUP_BENCH_SERVE_JSON overrides,
// "" disables); --metrics-out appends the same row as one JSONL line;
// --spans-out writes the service thread's control-plane spans as JSONL plus
// a Perfetto-loadable trace.
//
//   ./bench_serve --switches 64 --threads 4 --churn 16 --serve-ms 400
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/downup_routing.hpp"
#include "exp_common.hpp"
#include "fabric/manager.hpp"
#include "fault/controller.hpp"
#include "fault/schedule.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/rng.hpp"
#include "util/span_recorder.hpp"
#include "util/summary.hpp"

namespace {

using namespace downup;
using Clock = std::chrono::steady_clock;

thread_local std::uint64_t gSink = 0;
inline void keep(std::uint64_t v) {
  gSink ^= v;
  asm volatile("" : : "g"(&gSink) : "memory");
}

inline double toNs(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}

struct ReaderStats {
  std::uint64_t lookups = 0;
  std::uint64_t lookupsDuringReconfig = 0;
  std::uint64_t acquires = 0;
  double maxAcquireNs = 0.0;
  util::QuantileSketch lookupNs;
  util::QuantileSketch acquireNs;
};

struct ServeResult {
  double durationSeconds = 0.0;
  ReaderStats total;
  std::uint64_t rebuilds = 0;
  std::uint64_t rebuildsSkipped = 0;
  std::uint64_t transitionsAbsorbed = 0;
  std::uint64_t largestBatch = 0;
  std::uint64_t finalEpoch = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t retireDepthMax = 0;
  std::uint64_t snapshotBytes = 0;
  double snapshotLifetimeP50Ns = 0.0;
  double snapshotLifetimeP99Ns = 0.0;
  std::string fabricMetricsJson;
  bool allOk = true;
};

/// One reader thread: pin the current epoch, run a batch of random-pair
/// lookups against it, unpin, repeat.  Every lookup in one of kTimedEvery
/// batches is timed individually (quantiles without paying two clock reads
/// per lookup on the throughput path).
void readerLoop(fabric::FabricManager& fm, fabric::Reader reader,
                topo::NodeId nodes, std::uint64_t seed,
                const std::atomic<bool>& stop, ReaderStats& stats) {
  constexpr std::uint32_t kBatch = 256;
  constexpr std::uint32_t kTimedEvery = 64;
  util::Rng rng(seed);
  std::uint64_t batchIndex = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const auto tAcquire0 = Clock::now();
    fabric::PinnedSnapshot pin = fm.acquire(reader);
    const double acquireNs = toNs(Clock::now() - tAcquire0);
    stats.acquireNs.add(acquireNs);
    if (acquireNs > stats.maxAcquireNs) stats.maxAcquireNs = acquireNs;
    ++stats.acquires;

    const routing::RoutingTable& table = pin.table();
    const bool timedBatch = (batchIndex++ % kTimedEvery) == 0;
    for (std::uint32_t i = 0; i < kBatch; ++i) {
      const auto src = static_cast<topo::NodeId>(rng.below(nodes));
      auto dst = static_cast<topo::NodeId>(rng.below(nodes));
      if (dst == src) dst = (dst + 1) % nodes;
      if (timedBatch) {
        const auto t0 = Clock::now();
        keep(table.firstChannels(src, dst).size());
        keep(table.distance(src, dst));
        stats.lookupNs.add(toNs(Clock::now() - t0));
      } else {
        keep(table.firstChannels(src, dst).size());
        keep(table.distance(src, dst));
      }
      // Reads keep flowing while the service thread rebuilds; count the
      // ones that overlap an in-flight reconfiguration.
      if (fm.rebuildActive()) ++stats.lookupsDuringReconfig;
    }
    stats.lookups += kBatch;
  }
}

/// Seeded churn: `churn` distinct non-partitioning links each fail and
/// recover (spread-out down/up pairs), then a handful of same-cycle flap
/// bursts exercise the down-before-up ordering and the coalescing
/// cancel-out.  Pure data — the injector thread paces it in wall time.
fault::FaultSchedule makeChurn(const topo::Topology& topo, unsigned churn,
                               std::uint64_t seed) {
  const fault::FaultSchedule picks =
      fault::FaultSchedule::randomLinkFailures(topo, churn, 0, 1, seed);
  fault::FaultSchedule schedule;
  std::uint64_t cycle = 1;
  for (const fault::FaultEvent& pick : picks.events()) {
    schedule.linkDown(cycle++, pick.id);
    schedule.linkUp(cycle++, pick.id);
  }
  const std::size_t flaps = std::min<std::size_t>(4, picks.size());
  for (std::size_t i = 0; i < flaps; ++i) {
    schedule.linkFlap(cycle++, picks.events()[i].id, 0);  // same-cycle flap
  }
  return schedule;
}

void writeRow(std::FILE* out, const ServeResult& r, int switches, int ports,
              std::uint64_t seed, int readers, unsigned churn,
              std::uint64_t coalesceUs, std::uint64_t intervalUs,
              const char* indent, const char* lineEnd) {
  const auto lk = r.total.lookupNs.snapshot();
  const auto aq = r.total.acquireNs.snapshot();
  const double perSec =
      r.durationSeconds > 0.0
          ? static_cast<double>(r.total.lookups) / r.durationSeconds
          : 0.0;
  const std::uint64_t coalesced =
      r.transitionsAbsorbed > r.rebuilds ? r.transitionsAbsorbed - r.rebuilds
                                         : 0;
  std::fprintf(out, "%s\"switches\": %d, \"ports\": %d, \"seed\": %llu,%s",
               indent, switches, ports,
               static_cast<unsigned long long>(seed), lineEnd);
  std::fprintf(out,
               "%s\"readerThreads\": %d, \"churnLinks\": %u, "
               "\"coalesceWindowMicros\": %llu, \"faultIntervalMicros\": "
               "%llu,%s",
               indent, readers, churn,
               static_cast<unsigned long long>(coalesceUs),
               static_cast<unsigned long long>(intervalUs), lineEnd);
  std::fprintf(out,
               "%s\"durationSeconds\": %.3f, \"lookups\": %llu, "
               "\"lookupsPerSec\": %.0f,%s",
               indent, r.durationSeconds,
               static_cast<unsigned long long>(r.total.lookups), perSec,
               lineEnd);
  std::fprintf(out,
               "%s\"lookupP50Ns\": %.0f, \"lookupP99Ns\": %.0f, "
               "\"lookupMaxNs\": %.0f,%s",
               indent, lk.p50, lk.p99, r.total.lookupNs.max(), lineEnd);
  std::fprintf(out,
               "%s\"acquireP50Ns\": %.0f, \"acquireP99Ns\": %.0f, "
               "\"epochSwapStallMaxNs\": %.0f,%s",
               indent, aq.p50, aq.p99, r.total.maxAcquireNs, lineEnd);
  std::fprintf(out,
               "%s\"lookupsDuringReconfig\": %llu, \"rebuilds\": %llu, "
               "\"rebuildsSkipped\": %llu,%s",
               indent,
               static_cast<unsigned long long>(r.total.lookupsDuringReconfig),
               static_cast<unsigned long long>(r.rebuilds),
               static_cast<unsigned long long>(r.rebuildsSkipped), lineEnd);
  std::fprintf(out,
               "%s\"transitionsAbsorbed\": %llu, \"rebuildsCoalesced\": "
               "%llu, \"largestBatch\": %llu,%s",
               indent, static_cast<unsigned long long>(r.transitionsAbsorbed),
               static_cast<unsigned long long>(coalesced),
               static_cast<unsigned long long>(r.largestBatch), lineEnd);
  std::fprintf(out,
               "%s\"finalEpoch\": %llu, \"epochsReclaimed\": %llu,%s",
               indent, static_cast<unsigned long long>(r.finalEpoch),
               static_cast<unsigned long long>(r.reclaimed), lineEnd);
  std::fprintf(out,
               "%s\"retireDepthMax\": %llu, \"snapshotBytes\": %llu, "
               "\"snapshotLifetimeP50Ns\": %.0f, \"snapshotLifetimeP99Ns\": "
               "%.0f,%s",
               indent, static_cast<unsigned long long>(r.retireDepthMax),
               static_cast<unsigned long long>(r.snapshotBytes),
               r.snapshotLifetimeP50Ns, r.snapshotLifetimeP99Ns, lineEnd);
  std::fprintf(out, "%s\"fabricMetrics\": %s,%s", indent,
               r.fabricMetricsJson.c_str(), lineEnd);
  std::fprintf(out, "%s\"allPublishedOk\": %s", indent,
               r.allOk ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  bench::ScenarioCli scli(
      "bench_serve",
      "concurrent route-lookup service under fault churn: reader threads "
      "(--threads) hammer the fabric's epoch-swapped snapshot path while a "
      "seeded schedule drives live reconfiguration",
      {.switches = 64, .ports = 4, .warmup = 0, .measure = 8000,
       .obsOutputs = false});
  auto churnOpt = scli.cli().positiveOption<int>(
      "churn", 16, "distinct links that fail and recover during the run");
  auto coalesceOpt = scli.cli().option<int>(
      "coalesce-us", 200, "fabric coalescing window in microseconds");
  auto intervalOpt = scli.cli().positiveOption<int>(
      "fault-interval-us", 4000,
      "wall-clock pacing between schedule cycles (microseconds)");
  auto serveMsOpt = scli.cli().positiveOption<int>(
      "serve-ms", 400, "minimum serving span in milliseconds");
  auto metricsOut = scli.cli().option<std::string>(
      "metrics-out", "", "append the result row as one JSONL line");
  auto spansOut = scli.cli().option<std::string>(
      "spans-out", "",
      "control-plane span path prefix (.{jsonl,trace.json} appended)");
  auto jsonOpt = scli.cli().option<std::string>(
      "json", "",
      "JSON output path (default BENCH_serve.json or "
      "$DOWNUP_BENCH_SERVE_JSON; \"\" with the env var disables)");
  scli.parse(argc, argv);

  const int switches = scli.switches();
  const int readers = scli.threads();
  const auto churn = static_cast<unsigned>(*churnOpt);
  const auto coalesceUs = static_cast<std::uint64_t>(
      *coalesceOpt < 0 ? 0 : *coalesceOpt);
  const auto intervalUs = static_cast<std::uint64_t>(*intervalOpt);

  util::Rng topoRng(scli.seed());
  const topo::Topology topo = topo::randomIrregular(
      static_cast<topo::NodeId>(switches),
      {.maxPorts = static_cast<unsigned>(scli.ports())}, topoRng);
  util::Rng treeRng(scli.seed() + 1);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing baseline = core::buildDownUp(topo, ct);

  const fault::FaultSchedule schedule =
      makeChurn(topo, churn, scli.seed() + 2);
  fault::FaultController controller(topo, schedule);
  util::SpanRecorder spans;
  fabric::FabricMetrics metrics;
  fabric::FabricManager::Options fmOptions;
  fmOptions.coalesceWindowMicros = coalesceUs;
  fmOptions.metrics = &metrics;
  if (!spansOut->empty()) fmOptions.spans = &spans;
  fabric::FabricManager fm(topo, baseline.table(), fmOptions);
  controller.attachSink(&fm);

  std::vector<fabric::Reader> handles;
  handles.reserve(static_cast<std::size_t>(readers));
  for (int r = 0; r < readers; ++r) handles.push_back(fm.makeReader());

  std::atomic<bool> stop{false};
  std::vector<ReaderStats> stats(static_cast<std::size_t>(readers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers));

  fm.startService();
  const auto t0 = Clock::now();
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back(readerLoop, std::ref(fm), handles[r],
                         topo.nodeCount(), scli.seed() + 100 + r,
                         std::cref(stop), std::ref(stats[r]));
  }

  // Injector: pace the schedule's cycles in wall time; every applyEventsAt
  // posts its batch of effective transitions to the fabric's queue.
  while (controller.nextEventCycle() != fault::FaultController::kNever) {
    controller.applyEventsAt(controller.nextEventCycle());
    std::this_thread::sleep_for(std::chrono::microseconds(intervalUs));
  }
  // Keep serving until the minimum span elapsed (readers also need time to
  // observe the last swap).
  const auto minSpan = std::chrono::milliseconds(*serveMsOpt);
  while (Clock::now() - t0 < minSpan) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  fm.stopService();
  fm.tryReclaim();

  ServeResult result;
  result.durationSeconds = seconds;
  for (const ReaderStats& s : stats) {
    result.total.lookups += s.lookups;
    result.total.lookupsDuringReconfig += s.lookupsDuringReconfig;
    result.total.acquires += s.acquires;
    if (s.maxAcquireNs > result.total.maxAcquireNs) {
      result.total.maxAcquireNs = s.maxAcquireNs;
    }
    result.total.lookupNs.mergeFrom(s.lookupNs);
    result.total.acquireNs.mergeFrom(s.acquireNs);
  }
  result.rebuilds = fm.rebuilds();
  result.rebuildsSkipped = fm.rebuildsSkipped();
  result.transitionsAbsorbed = fm.transitionsAbsorbed();
  result.largestBatch = fm.largestBatch();
  result.finalEpoch = fm.currentEpoch();
  result.reclaimed = fm.reclaimedCount();
  result.allOk = fm.allPublishedOk();
  result.retireDepthMax =
      metrics.retireDepthMax.load(std::memory_order_relaxed);
  result.snapshotBytes = fm.acquire(handles[0]).table().bytes();
  const auto lifetime = metrics.snapshotLifetimeNs.snapshot();
  result.snapshotLifetimeP50Ns = lifetime.p50Ns;
  result.snapshotLifetimeP99Ns = lifetime.p99Ns;
  {
    std::ostringstream mjson;
    metrics.writeJson(mjson);
    result.fabricMetricsJson = mjson.str();
  }

  const auto lk = result.total.lookupNs.snapshot();
  std::printf(
      "bench_serve: %llu lookups in %.3fs (%.2fM/s, %d readers), "
      "p50 %.0fns p99 %.0fns, swap stall max %.0fns\n",
      static_cast<unsigned long long>(result.total.lookups), seconds,
      static_cast<double>(result.total.lookups) / seconds / 1e6, readers,
      lk.p50, lk.p99, result.total.maxAcquireNs);
  std::printf(
      "bench_serve: %llu lookups during reconfig, %llu rebuilds "
      "(%llu skipped, %llu transitions, largest batch %llu), final epoch "
      "%llu, allOk=%d, %.1f KiB per snapshot\n",
      static_cast<unsigned long long>(result.total.lookupsDuringReconfig),
      static_cast<unsigned long long>(result.rebuilds),
      static_cast<unsigned long long>(result.rebuildsSkipped),
      static_cast<unsigned long long>(result.transitionsAbsorbed),
      static_cast<unsigned long long>(result.largestBatch),
      static_cast<unsigned long long>(result.finalEpoch),
      result.allOk ? 1 : 0,
      static_cast<double>(result.snapshotBytes) / 1024.0);

  std::string jsonPath = *jsonOpt;
  if (jsonPath.empty()) {
    const char* env = std::getenv("DOWNUP_BENCH_SERVE_JSON");
    jsonPath = env != nullptr ? env : "BENCH_serve.json";
  }
  if (!jsonPath.empty()) {
    std::FILE* out = std::fopen(jsonPath.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n", jsonPath.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"bench_serve\",\n");
    std::fprintf(out, "  \"gitRev\": \"%s\",\n", obs::gitRevision().c_str());
    std::fprintf(out, "  \"timestampUtc\": \"%s\",\n",
                 obs::utcTimestamp().c_str());
    std::fprintf(out, "  \"hardwareConcurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    writeRow(out, result, switches, scli.ports(), scli.seed(), readers,
             churn, coalesceUs, intervalUs, "  ", "\n");
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("bench_serve: wrote %s\n", jsonPath.c_str());
  }
  if (!metricsOut->empty()) {
    std::FILE* out = std::fopen(metricsOut->c_str(), "a");
    if (out != nullptr) {
      std::fprintf(out, "{\"bench\": \"bench_serve\", ");
      writeRow(out, result, switches, scli.ports(), scli.seed(), readers,
               churn, coalesceUs, intervalUs, "", " ");
      std::fprintf(out, "}\n");
      std::fclose(out);
      std::printf("bench_serve: appended %s\n", metricsOut->c_str());
    }
  }
  if (!spansOut->empty()) {
    {
      std::ofstream out(*spansOut + ".jsonl");
      obs::writeSpansJsonl(spans, out);
    }
    {
      std::ofstream out(*spansOut + ".trace.json");
      obs::writeSpansChromeTrace(spans, out);
    }
    std::printf("bench_serve: wrote %s.{jsonl,trace.json}\n",
                spansOut->c_str());
  }
  return 0;
}
