// fault_storm: online reconfiguration of a 512-switch, 4-port fabric.
//
// Why this workload: routing construction does all the work and the
// simulator none.  A seeded set of non-partitioning single-link failures,
// each followed by its recovery, is applied one event at a time through
// FabricManager::publishFromMasks(..., incremental=true) in driven mode.
// The manager serves a failure on the incremental path when it can and
// falls back to a full rebuild when it cannot; recoveries take a full
// rebuild.  The links come from the seed alone, never from how the build
// under test handles them, so the share of failures served incrementally
// is an outcome (fault.incremental_ratio), and a change that makes more
// failures fall back shows as slower failures.
//
// Each event is timed from the publish call until the first acquire plus
// firstChannels lookup served by the new epoch.  Light operations are all
// failures, heavy ones all recoveries, whichever path serves them.  The
// independent oracle (table cross-check on) audits every published epoch
// outside the timed window.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fabric_setup.hpp"
#include "fault/reconfigure.hpp"
#include "report.hpp"
#include "util/rng.hpp"
#include "verify/gate.hpp"
#include "verify/oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace downup;

namespace {

/// One byte per channel: alive iff its link is alive.
std::vector<std::uint8_t> channelAliveBytes(
    const topo::Topology& topo, const std::vector<std::uint8_t>& linkAlive) {
  std::vector<std::uint8_t> alive(topo.channelCount(), 0);
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    alive[2 * l] = linkAlive[l];
    alive[2 * l + 1] = linkAlive[l];
  }
  return alive;
}

}  // namespace

void runFaultStorm(const Options& options, Report& report) {
  const topo::NodeId switches = options.tiny ? 64 : 512;
  const unsigned setups = options.tiny ? 2 : 21;
  // Distinct links per run.  The storm fails each once, then keeps cycling
  // through them until the time is up, so a run has at least 100 failures;
  // this many links keep the share of failures served incrementally within
  // a few percent between seeds.
  const unsigned linkCount = options.tiny ? 4 : 100;
  const double hardCapMs = 150000.0;
  util::SpanRecorder recorder;
  recorder.setAllocTracking(true);
  util::SpanRecorder* setupSpans = options.trace ? &recorder : nullptr;
  // Wall time of the windows spans are recorded in, measured around them.
  double tracedWindowMs = 0.0;

  // Set-up, repeated; the last instance serves the storm.
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
  fabric::Reader reader = fm.makeReader();
  fabric::Reader replayReader = fm.makeReader();
  const fault::Reconfigurator replay(topo);
  std::vector<std::uint8_t> linkAlive(topo.linkCount(), 1);
  const std::vector<std::uint8_t> nodeAlive(topo.nodeCount(), 1);

  // The seed draws the failing links; the storm starts from a healthy
  // full-rebuild epoch, as every recovery leaves it.
  const std::vector<topo::LinkId> links =
      pickFailureLinks(topo, linkCount, options.seed);
  report.check(links.size() == linkCount,
               "enough non-partitioning links to fail");
  if (links.empty()) return;
  report.check(fm.publishFromMasks(linkAlive, nodeAlive, false).ok,
               "healthy full-rebuild epoch published");

  std::vector<double> downMs, downIncrMs, downFullMs, upMs, untracedEventMs,
      tracedEventMs;
  std::vector<double> replayIncrMs, replayFullMs, dirty, publishSelfMs;
  double timedCpuS = 0.0, timedMs = 0.0;
  std::uint64_t retiredMax = 0, failures = 0, incrementalFailures = 0,
                incrementalRecoveries = 0;
  std::size_t tracedEvents = 0;

  const auto runEvent = [&](topo::LinkId link, bool down, bool traced) {
    util::SpanRecorder* spans = traced ? &recorder : nullptr;
    const auto w0 = Clock::now();  // traced window: the whole event
    // Traced events pin the epoch being replaced, to replay the rebuild
    // through the fault layer's public API after the timed section and
    // split a publish into rebuild and publish-self time.
    fabric::PinnedSnapshot replaced;
    if (traced) {
      util::ScopedSpan span(spans, "other");
      replaced = fm.acquire(replayReader);
    }
    linkAlive[link] = down ? 0 : 1;
    const auto [a, b] = topo.linkEnds(link);
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    fabric::PublishResult result;
    fabric::PinnedSnapshot pin;
    std::size_t candidates = 0;
    {
      util::ScopedSpan span(spans, "fabric.publish");
      result = fm.publishFromMasks(linkAlive, nodeAlive,
                                   /*incremental=*/true);
    }
    const double publishMs = msBetween(t0, Clock::now());
    {
      util::ScopedSpan span(spans, "fabric.acquire");
      pin = fm.acquire(reader);
    }
    {
      util::ScopedSpan span(spans, "routing.lookup");
      candidates = pin.table().firstChannels(a, b).size();
    }
    const double ms = msBetween(t0, Clock::now());
    const double cpuS = processCpuSeconds() - cpu0;

    {
      util::ScopedSpan span(spans, "other");
      report.check(result.ok && result.published,
                   "publish result ok for link " + std::to_string(link));
      report.check(pin.epoch() == result.epoch && candidates > 0,
                   "first lookup served by the new epoch");
      if (down) {
        ++failures;
        incrementalFailures += result.incremental ? 1 : 0;
      } else {
        incrementalRecoveries += result.incremental ? 1 : 0;
      }
      if (traced) {
        tracedEventMs.push_back(ms);
      } else {
        // A traced event's replay pin delays reclamation; count only
        // untraced events.
        retiredMax = std::max<std::uint64_t>(retiredMax, fm.retiredCount());
        untracedEventMs.push_back(ms);
        (down ? downMs : upMs).push_back(ms);
        if (down) (result.incremental ? downIncrMs : downFullMs).push_back(ms);
        timedCpuS += cpuS;
        timedMs += ms;
      }
    }
    if (traced) {
      fault::ReconfigOutcome outcome;
      const auto s0 = Clock::now();
      {
        util::ScopedSpan span(spans, "fault.rebuild");
        outcome = replay.rebuildIncremental(
            replaced.table(), linkAlive, nodeAlive);
      }
      const double replayMs = msBetween(s0, Clock::now());
      util::ScopedSpan span(spans, "other");
      report.check(outcome.incremental == result.incremental &&
                       outcome.table->identicalTo(pin.table()),
                   "replayed rebuild reproduces the published epoch");
      (outcome.incremental ? replayIncrMs : replayFullMs).push_back(replayMs);
      if (outcome.incremental) dirty.push_back(outcome.rebuiltDestinations);
      publishSelfMs.push_back(publishMs - replayMs);
      outcome = fault::ReconfigOutcome();
      replaced = fabric::PinnedSnapshot();
    }
    if (options.plant == "trace-gap" && traced) {
      // Work outside every span: reconciliation must catch it.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // The independent oracle audits the epoch just published.
    {
      util::ScopedSpan span(spans, "verify.oracle");
      const std::vector<std::uint8_t> channelAlive =
          channelAliveBytes(topo, linkAlive);
      std::optional<routing::TurnPermissions> planted;
      if (options.plant == "oracle-violation") {
        planted.emplace(verify::unrestrictedCopy(pin.table().permissions()));
      }
      verify::OracleInput input;
      input.perms = planted ? &*planted : &pin.table().permissions();
      input.channelAlive = channelAlive;
      input.table = &pin.table();
      const verify::OracleReport oracle = verify::runOracle(input);
      report.check(oracle.ok(), "oracle: " + oracle.describe());
    }
    if (traced) {
      {
        util::ScopedSpan span(spans, "other");
        pin = fabric::PinnedSnapshot();
      }
      tracedWindowMs += msBetween(w0, Clock::now());
      ++tracedEvents;
    }
  };

  const auto tStart = Clock::now();
  std::size_t pairs = 0;
  const std::size_t minPairs = links.size();
  for (; pairs < minPairs ||
         msBetween(tStart, Clock::now()) < options.seconds * 1000.0;
       ++pairs) {
    if (msBetween(tStart, Clock::now()) > hardCapMs) break;
    // Traced runs alternate untraced and traced pairs.
    const bool traced = options.trace && pairs % 2 == 1;
    const topo::LinkId link = links[pairs % links.size()];
    runEvent(link, /*down=*/true, traced);
    runEvent(link, /*down=*/false, traced);
  }
  report.check(pairs >= minPairs, "at least " + std::to_string(minPairs) +
                                      " failure/recovery pairs ran");

  const double incrementalRatio =
      failures > 0 ? static_cast<double>(incrementalFailures) /
                         static_cast<double>(failures)
                   : 0.0;
  report.header("rounds", std::to_string(pairs) + " failure/recovery pairs");
  report.header("threads",
                "1 (serial construction, the fabric manager's default)");
  report.header("switches", std::to_string(switches));
  report.metric("peak_rss_mb", peakRssMb());
  report.metric("setup_s", report.timing("setup_s", "s", setupS).p50);
  report.note(std::to_string(links.size()) + " links; " +
              std::to_string(incrementalFailures) + " of " +
              std::to_string(failures) +
              " failures served incrementally, " +
              std::to_string(incrementalRecoveries) + " recoveries");
  if (!options.trace) {
    report.timing("reroute_down_ms (every failure)", "ms", downMs);
    report.timing("  served incrementally", "ms", downIncrMs);
    report.timing("  fell back to full rebuild", "ms", downFullMs);
    report.timing("reroute_up_ms (every recovery)", "ms", upMs);
    report.metric("light_p90_ms", percentile(downMs, 90.0));
    report.metric("heavy_p90_ms", percentile(upMs, 90.0));
    const double events = static_cast<double>(downMs.size() + upMs.size());
    report.metric("work_per_s", events / (timedMs / 1000.0));
    report.metric("cpu_us_per_work", timedCpuS * 1e6 / events);
    return;
  }

  const SpanAnalysis spans = analyzeSpans(recorder);
  for (const char* name :
       {"topology.generate", "tree.build", "routing.classify", "core.repair",
        "core.release", "routing.table_build", "routing.verify",
        "fabric.construct", "verify.oracle"}) {
    report.metric(std::string(name) + "_ms", spans.medianMs(name));
  }
  const SpanStats& table = spans["routing.table_build"];
  report.metric("routing.table_alloc_mb",
                table.count > 0 ? table.allocBytes / 1048576.0 /
                                      static_cast<double>(table.count)
                                : 0.0);
  report.metric("fault.rebuild_incr_ms", percentile(replayIncrMs, 50.0));
  report.metric("fault.rebuild_full_ms", percentile(replayFullMs, 50.0));
  report.metric("fault.dirty_destinations", percentile(dirty, 50.0));
  report.metric("fault.incremental_ratio", incrementalRatio);
  report.metric("fabric.publish_ms", spans.medianMs("fabric.publish"));
  report.metric("fabric.publish_self_ms", percentile(publishSelfMs, 50.0));
  report.metric("fabric.acquire_ns",
                std::max(0.0, spans.medianMs("fabric.acquire") * 1e6 -
                                  spanCalibration().biasNs));
  report.metric("fabric.retired_max", static_cast<double>(retiredMax));
  report.metric("routing.lookup_ns",
                std::max(0.0, spans.medianMs("routing.lookup") * 1e6 -
                                  spanCalibration().biasNs));
  report.metric("routing.hops_walked",
                static_cast<double>(spans["routing.lookup"].count));
  reconcile(report, spans, tracedWindowMs, tracedEvents);
  reportTraceOverhead(report, untracedEventMs, tracedEventMs);
  report.note("spans: " + writeSpans(recorder, options));
}

}  // namespace perfbench
