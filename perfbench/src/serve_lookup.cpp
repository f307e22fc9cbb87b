// serve_lookup: route lookups on a 1024-switch, 4-port fabric while its
// routing is republished.
//
// Why this workload: reads dominate, on a table far larger than L2, with
// writes beside them.  Two reader threads each walk whole routes hop by hop
// (firstChannels, then nextChannels until the destination) on pinned
// snapshots in a closed loop, timed per batch of walks.  A writer thread
// publishes link down/up epochs on a fixed wall-clock period (open loop),
// longer than a full rebuild; each update is timed from when it was due
// until the first lookup served by the new epoch, and the writer's lateness
// is reported.  Light operations are walk batches with no rebuild in
// flight, heavy ones batches that overlap a rebuild.
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fabric_setup.hpp"
#include "report.hpp"
#include "util/rng.hpp"
#include "walk.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace downup;

namespace {

constexpr unsigned kReaders = 2;
constexpr unsigned kWalksPerBatch = 64;
constexpr unsigned kSpanEveryBatches = 16;  // span sampling in traced slices

struct ReaderResult {
  std::vector<float> lightUs, heavyUs;            // untraced slices
  std::vector<float> untracedUs, tracedUs;        // every slice, by kind
  std::vector<std::uint64_t> windowHops;          // by window of batch end
  std::uint64_t tracedHops = 0;                   // sampled traced batches
  std::uint64_t walks = 0;
  std::uint64_t badWalks = 0;
};

}  // namespace

void runServeLookup(const Options& options, Report& report) {
  const topo::NodeId switches = options.tiny ? 64 : 1024;
  const unsigned setups = options.tiny ? 2 : 3;
  const double periodMs = options.tiny ? 50.0 : 2000.0;
  // Traced runs alternate untraced and traced slices; throughput and CPU
  // are taken per window (a quarter slice) and reported as medians, so a
  // stalled moment moves one window, not the run's figure.
  const double sliceMs = options.tiny ? 100.0 : 1000.0;
  const double windowMs = sliceMs / 4.0;
  // Set-up and the writer record into `recorder`, on one thread at a time,
  // the readers into their own.
  util::SpanRecorder recorder, readerRecorder;
  recorder.setAllocTracking(true);
  util::SpanRecorder* setupSpans = options.trace ? &recorder : nullptr;
  // Wall time of the set-ups and traced updates, measured around them.
  double tracedWindowMs = 0.0;
  std::size_t tracedUpdates = 0;

  // Set-up, repeated; the last instance serves.
  std::vector<double> setupS;
  std::unique_ptr<FabricSetup> setup;
  for (unsigned k = 0; k < setups; ++k) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = buildFabric(switches, 4, kFabricSeed, setupSpans);
    const double ms = msBetween(t0, Clock::now());
    setupS.push_back(ms / 1000.0);
    if (options.trace) tracedWindowMs += ms;
    report.check(setup->verified, "baseline routing verifies");
  }
  const topo::Topology& topo = setup->topo;
  fabric::FabricManager& fm = *setup->manager;
  const std::vector<topo::LinkId> links =
      pickFailureLinks(topo, 64, options.seed + 2);
  report.check(!links.empty(), "a non-partitioning link to fail");

  std::atomic<bool> stop{false};
  std::atomic<bool> tracedSlice{false};
  std::vector<ReaderResult> results(kReaders);
  std::vector<fabric::Reader> handles;
  for (unsigned r = 0; r < kReaders; ++r) handles.push_back(fm.makeReader());
  const bool plantWrongHops = options.plant == "wrong-hops";
  Clock::time_point start;  // set before any thread starts

  const auto readerLoop = [&](unsigned r) {
    ReaderResult& out = results[r];
    util::Rng rng(options.seed * 1000003 + r);
    const topo::NodeId n = topo.nodeCount();
    std::uint64_t batch = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const bool traced = tracedSlice.load(std::memory_order_relaxed);
      util::SpanRecorder* spans =
          traced && batch % kSpanEveryBatches == 0 ? &readerRecorder
                                                  : nullptr;
      ++batch;
      const auto t0 = Clock::now();
      bool heavy = fm.rebuildActive();
      std::uint64_t hops = 0;
      {
        util::ScopedSpan root(spans, "serve.batch");
        fabric::PinnedSnapshot pin;
        {
          util::ScopedSpan span(spans, "fabric.acquire");
          pin = fm.acquire(handles[r]);
        }
        util::ScopedSpan span(spans, "routing.walk");
        const routing::RoutingTable& table = pin.table();
        for (unsigned w = 0; w < kWalksPerBatch; ++w) {
          const auto src = static_cast<topo::NodeId>(rng.below(n));
          auto dst = static_cast<topo::NodeId>(rng.below(n));
          if (dst == src) dst = (dst + 1) % n;
          const int h = walkRoute(table, src, dst,
                                  static_cast<std::uint32_t>(batch + w), n);
          const int expected =
              table.distance(src, dst) + (plantWrongHops ? 1 : 0);
          out.badWalks += h == expected ? 0 : 1;
          hops += static_cast<std::uint64_t>(h > 0 ? h : 0);
        }
      }
      heavy = heavy || fm.rebuildActive();
      const auto t1 = Clock::now();
      const auto us = static_cast<float>(msBetween(t0, t1) * 1000.0);
      out.walks += kWalksPerBatch;
      if (traced) {
        out.tracedUs.push_back(us);
        if (spans != nullptr) out.tracedHops += hops;
      } else {
        out.untracedUs.push_back(us);
        (heavy ? out.heavyUs : out.lightUs).push_back(us);
        const auto window =
            static_cast<std::size_t>(msBetween(start, t1) / windowMs);
        if (window >= out.windowHops.size()) {
          out.windowHops.resize(window + 1, 0);
        }
        out.windowHops[window] += hops;
      }
    }
  };

  // Writer: open loop on a fixed period; each update is timed from its due
  // time until the first lookup served by the new epoch.
  std::vector<double> updateMs, latenessMs;
  std::uint64_t retiredMax = 0, updates = 0, badUpdates = 0;
  const auto writerLoop = [&](Clock::time_point start) {
    fabric::Reader reader = fm.makeReader();
    std::vector<std::uint8_t> linkAlive(topo.linkCount(), 1);
    const std::vector<std::uint8_t> nodeAlive(topo.nodeCount(), 1);
    for (std::uint64_t k = 1;; ++k) {
      const auto due =
          start + std::chrono::microseconds(
                      static_cast<std::int64_t>(periodMs * 1000.0 * k));
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_acquire)) return;
      const auto t0 = Clock::now();
      latenessMs.push_back(msBetween(due, t0));
      const topo::LinkId link = links[(k / 2) % links.size()];
      linkAlive[link] = k % 2 == 1 ? 0 : 1;
      util::SpanRecorder* spans =
          tracedSlice.load(std::memory_order_relaxed) ? &recorder : nullptr;
      fabric::PublishResult result;
      std::size_t candidates = 0;
      std::uint64_t epoch = 0;
      {
        {
          util::ScopedSpan span(spans, "fabric.publish");
          result = fm.publishFromMasks(linkAlive, nodeAlive, true);
        }
        fabric::PinnedSnapshot pin;
        {
          util::ScopedSpan span(spans, "fabric.acquire");
          pin = fm.acquire(reader);
        }
        util::ScopedSpan span(spans, "routing.lookup");
        const auto [a, b] = topo.linkEnds(link);
        candidates = pin.table().firstChannels(a, b).size();
        epoch = pin.epoch();
        pin = fabric::PinnedSnapshot();
      }
      const auto t1 = Clock::now();
      if (spans != nullptr) {
        tracedWindowMs += msBetween(t0, t1);
        ++tracedUpdates;
      }
      updateMs.push_back(msBetween(due, t1));
      ++updates;
      badUpdates += result.ok && result.published && epoch == result.epoch &&
                            candidates > 0
                        ? 0
                        : 1;
      retiredMax = std::max<std::uint64_t>(retiredMax, fm.retiredCount());
    }
  };

  // cpuAt[w] is the process CPU time when window w began.
  std::vector<double> cpuAt = {processCpuSeconds()};
  start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned r = 0; r < kReaders; ++r) threads.emplace_back(readerLoop, r);
  std::thread writer(writerLoop, start);
  const auto tracedWindow = [&](std::size_t w) {
    return options.trace && (w / 4) % 2 == 1;
  };
  for (std::size_t w = 0;; ++w) {
    tracedSlice.store(tracedWindow(w), std::memory_order_relaxed);
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(
                    static_cast<std::int64_t>(windowMs * 1000.0 * (w + 1))));
    cpuAt.push_back(processCpuSeconds());
    // Serve at least long enough for the writer to publish twice.
    if ((w + 1) % 8 == 0 && msBetween(start, Clock::now()) >=
                                std::max(options.seconds * 1000.0,
                                         2.5 * periodMs)) {
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : threads) t.join();

  // Per-window lookups/s and CPU per lookup over complete untraced windows;
  // the first window is warm-up.
  const std::size_t windows = cpuAt.size() - 1;
  std::vector<double> windowRate, windowCpuUs;
  for (std::size_t w = 1; w < windows; ++w) {
    if (tracedWindow(w)) continue;
    std::uint64_t hops = 0;
    for (const ReaderResult& r : results) {
      hops += w < r.windowHops.size() ? r.windowHops[w] : 0;
    }
    if (hops == 0) continue;
    windowRate.push_back(static_cast<double>(hops) / (windowMs / 1000.0));
    windowCpuUs.push_back((cpuAt[w + 1] - cpuAt[w]) * 1e6 /
                          static_cast<double>(hops));
  }

  ReaderResult all;
  for (const ReaderResult& r : results) {
    all.lightUs.insert(all.lightUs.end(), r.lightUs.begin(), r.lightUs.end());
    all.heavyUs.insert(all.heavyUs.end(), r.heavyUs.begin(), r.heavyUs.end());
    all.untracedUs.insert(all.untracedUs.end(), r.untracedUs.begin(),
                          r.untracedUs.end());
    all.tracedUs.insert(all.tracedUs.end(), r.tracedUs.begin(),
                        r.tracedUs.end());
    all.tracedHops += r.tracedHops;
    all.walks += r.walks;
    all.badWalks += r.badWalks;
  }
  const auto toMs = [](const std::vector<float>& us) {
    std::vector<double> ms(us.begin(), us.end());
    for (double& v : ms) v /= 1000.0;
    return ms;
  };
  report.checkedOk(all.walks - all.badWalks);
  for (std::uint64_t i = 0; i < all.badWalks; ++i) {
    report.check(false, "walk length equals distance on its pinned epoch");
  }
  report.checkedOk(updates - badUpdates);
  for (std::uint64_t i = 0; i < badUpdates; ++i) {
    report.check(false, "update published ok and served its first lookup");
  }
  report.check(updates >= 2, "the writer published during the run");

  report.header("rounds", std::to_string(updates) + " updates, " +
                              std::to_string(all.walks) + " walks");
  report.header("threads", std::to_string(kReaders) +
                               " readers (closed loop) + 1 writer (open "
                               "loop, period " +
                               std::to_string(periodMs) + " ms)");
  report.header("switches", std::to_string(switches));
  report.metric("peak_rss_mb", peakRssMb());
  report.metric("setup_s", report.timing("setup_s", "s", setupS).p50);
  report.timing("update due->first lookup", "ms", updateMs);
  report.timing("writer lateness", "ms", latenessMs);
  if (!options.trace) {
    const std::vector<double> lightMs = toMs(all.lightUs);
    const std::vector<double> heavyMs = toMs(all.heavyUs);
    std::vector<double> batchUs(all.untracedUs.begin(), all.untracedUs.end());
    report.timing("lookup_batch_us (all batches)", "us", batchUs);
    report.timing("batch, no rebuild in flight", "ms", lightMs);
    report.timing("batch, rebuild in flight", "ms", heavyMs);
    report.metric("light_p90_ms", percentile(lightMs, 90.0));
    report.metric("heavy_p90_ms", percentile(heavyMs, 90.0));
    report.metric("work_per_s",
                  report.timing("lookups_per_s (per window)", "1/s",
                                windowRate).p50);
    report.metric("cpu_us_per_work",
                  report.timing("cpu us/lookup (per window)", "us",
                                windowCpuUs).p50);
    return;
  }

  const SpanAnalysis spans = analyzeSpans(recorder);
  const SpanAnalysis readerSpans = analyzeSpans(readerRecorder);
  for (const char* name :
       {"topology.generate", "tree.build", "routing.classify", "core.repair",
        "core.release", "routing.table_build", "routing.verify",
        "fabric.construct", "fabric.publish"}) {
    report.metric(std::string(name) + "_ms", spans.medianMs(name));
  }
  const SpanStats& table = spans["routing.table_build"];
  report.metric("routing.table_alloc_mb",
                table.count > 0 ? table.allocBytes / 1048576.0 /
                                      static_cast<double>(table.count)
                                : 0.0);
  report.metric("fabric.retired_max", static_cast<double>(retiredMax));
  report.metric("fabric.acquire_ns",
                std::max(0.0, readerSpans.medianMs("fabric.acquire") * 1e6 -
                                  spanCalibration().biasNs));
  report.metric("routing.hops_walked", static_cast<double>(all.tracedHops));
  report.metric("routing.lookup_ns",
                all.tracedHops > 0
                    ? readerSpans["routing.walk"].totalMs * 1e6 /
                          static_cast<double>(all.tracedHops)
                    : 0.0);
  reconcile(report, spans, tracedWindowMs, tracedUpdates);
  reportTraceOverhead(report, toMs(all.untracedUs), toMs(all.tracedUs));
  report.note("spans: " + writeSpans(recorder, options, "writer") + ", " +
              writeSpans(readerRecorder, options, "readers"));
}

}  // namespace perfbench
