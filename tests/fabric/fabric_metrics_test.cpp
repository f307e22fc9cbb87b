// FabricMetrics and control-plane tracing on the fabric manager: histogram
// accuracy, span tiling (the stage spans account for the rebuild wall
// time), the epoch-lifecycle counters, and the epoch ledger +
// flight-recorder sequence while reader threads pin and look up across a
// failure and its recovery (the CI thread-sanitizer target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fabric/manager.hpp"
#include "fabric/metrics.hpp"
#include "topology/generate.hpp"
#include "util/rng.hpp"

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
  explicit Fixture(topo::NodeId switches = 24, std::uint64_t seed = 11)
      : topo(makeSan(switches, seed)),
        reconf(topo),
        baseline(reconf.rebuild(allAlive(topo.linkCount()),
                                allAlive(topo.nodeCount()))) {}

  topo::Topology topo;
  fault::Reconfigurator reconf;
  fault::ReconfigOutcome baseline;
};

TEST(LatencyHistogramTest, CountsExactlyAndInterpolatesQuantiles) {
  LatencyHistogram h;
  std::uint64_t sum = 0;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    h.record(v);
    sum += v;
  }
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.maxNs, 1000u);
  EXPECT_DOUBLE_EQ(s.meanNs, static_cast<double>(sum) / 1000.0);
  // 4 sub-buckets per octave -> quantiles land within ~12.5% of the truth.
  EXPECT_GT(s.p50Ns, 500.0 * 0.8);
  EXPECT_LT(s.p50Ns, 500.0 * 1.2);
  EXPECT_GT(s.p99Ns, 990.0 * 0.8);
  EXPECT_LE(s.p99Ns, 1000.0);  // clamped to the observed max
  EXPECT_GE(s.p99Ns, s.p90Ns);
  EXPECT_GE(s.p90Ns, s.p50Ns);
}

TEST(LatencyHistogramTest, EmptyHistogramSnapshotsToZeros) {
  const LatencyHistogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.meanNs, 0.0);
  EXPECT_DOUBLE_EQ(s.p99Ns, 0.0);
  EXPECT_EQ(s.maxNs, 0u);
}

TEST(FabricMetricsTest, WriteJsonEmitsEveryCounter) {
  FabricMetrics m;
  m.acquireNs.record(120);
  m.publishes.store(3);
  m.dirtyDestinationsMax.store(7);
  std::ostringstream out;
  m.writeJson(out);
  const std::string text = out.str();
  for (const char* key :
       {"\"acquire\"", "\"rebuild\"", "\"snapshotLifetime\"",
        "\"publishes\":3", "\"reclaims\"", "\"retireDepthMax\"",
        "\"readersRegistered\"", "\"readerPinnedMax\"",
        "\"rebuildsRun\"", "\"rebuildsIncremental\"",
        "\"dirtyDestinationsTotal\"", "\"dirtyDestinationsMax\":7",
        "\"p50Ns\"", "\"p99Ns\""}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

TEST(FabricSpanTest, DrivenRebuildStagesTileTheDecisionWallTime) {
  // One full rebuild with spans attached: a single `rebuild` root whose
  // direct children (construction stages, publish) account for at least
  // 95% of the root's wall time — nothing substantial happens
  // untraced.  64 switches so stage work dwarfs the inter-span bookkeeping.
  Fixture fx(/*switches=*/64, /*seed=*/3);
  util::SpanRecorder spans;
  FabricManager::Options options;
  options.spans = &spans;
  FabricManager fm(fx.topo, *fx.baseline.table, options);

  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[2] = 0;
  ASSERT_TRUE(fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/false).ok);

  const auto all = spans.snapshot();
  ASSERT_FALSE(all.empty());
  ASSERT_STREQ(all[0].name, "rebuild");
  ASSERT_EQ(all[0].parent, util::SpanRecorder::kNoParent);
  ASSERT_GT(all[0].durationNs(), 0u);

  std::uint64_t childSum = 0;
  std::vector<std::string> childNames;
  for (const auto& s : all) {
    ASSERT_GT(s.endNs, 0u) << s.name << " left open";
    if (s.parent == 0u) {
      childSum += s.durationNs();
      childNames.emplace_back(s.name);
      EXPECT_EQ(s.depth, 1);
      EXPECT_GE(s.startNs, all[0].startNs);
      EXPECT_LE(s.endNs, all[0].endNs);
    }
  }
  for (const char* stage : {"partition", "subtopo", "tree", "classify",
                            "repair", "release", "table_build", "verify",
                            "merge", "publish"}) {
    EXPECT_NE(std::find(childNames.begin(), childNames.end(), stage),
              childNames.end())
        << "missing stage span: " << stage;
  }
  const double coverage = static_cast<double>(childSum) /
                          static_cast<double>(all[0].durationNs());
  EXPECT_GT(coverage, 0.95) << "stage spans cover too little of the rebuild";
  EXPECT_LT(coverage, 1.005) << "children exceed their parent";

  // table_build's only leaf is the bfs: candidates are derived at query
  // time, so no stage fills or copies a candidate index.
  bool sawBfs = false;
  for (const auto& s : all) {
    if (std::strcmp(s.name, "bfs") == 0) {
      sawBfs = true;
      EXPECT_STREQ(all[s.parent].name, "table_build");
    }
    EXPECT_STRNE(s.name, "candidate_fill");
  }
  EXPECT_TRUE(sawBfs);
}

TEST(FabricMetricsTest, DrivenPublishesStampLifetimesAndRetireDepth) {
  Fixture fx;
  FabricMetrics metrics;
  FabricManager::Options options;
  options.metrics = &metrics;
  FabricManager fm(fx.topo, *fx.baseline.table, options);
  Reader reader = fm.makeReader();

  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  // Three publishes with no reader pinned: every retired epoch reclaims
  // inside the publish path, so lifetimes get recorded (the baseline epoch
  // predates the metrics attach and is skipped).
  for (topo::LinkId l = 0; l < 3; ++l) {
    linksUp[l] = 0;
    fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/true);
  }
  { (void)fm.acquire(reader); }

  EXPECT_EQ(metrics.publishes.load(), 3u);
  EXPECT_EQ(metrics.rebuildsRun.load(), 3u);
  EXPECT_EQ(metrics.rebuildNs.count(), 3u);
  EXPECT_GE(metrics.retireDepthMax.load(), 1u);
  EXPECT_GE(metrics.reclaims.load(), 1u);
  EXPECT_GE(metrics.snapshotLifetimeNs.count(), 1u);
  EXPECT_EQ(metrics.readersRegistered.load(), 1u);
  EXPECT_EQ(metrics.acquireNs.count(), 1u);
  EXPECT_GT(metrics.dirtyDestinationsTotal.load(), 0u);
  EXPECT_GE(metrics.dirtyDestinationsMax.load(), 1u);
}

TEST(FabricMetricsTest, PublishesUnderConcurrentReadersKeepTheLedger) {
  // The TSan workhorse: the writer publishes a link failure and its
  // recovery while reader threads hammer the lock-free pin path, all hooks
  // attached.
  Fixture fx;
  FabricMetrics metrics;
  util::SpanRecorder spans;
  FabricManager::Options options;
  options.metrics = &metrics;
  options.spans = &spans;
  FabricManager fm(fx.topo, *fx.baseline.table, options);

  constexpr int kReaders = 3;
  std::atomic<int> registered{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&fm, &fx, &registered, &stop, r] {
      Reader reader = fm.makeReader();
      registered.fetch_add(1, std::memory_order_release);
      util::Rng rng(100 + static_cast<std::uint64_t>(r));
      std::uint64_t sink = 0;
      while (!stop.load(std::memory_order_acquire)) {
        PinnedSnapshot pin = fm.acquire(reader);
        const auto nodes = fx.topo.nodeCount();
        for (int i = 0; i < 64; ++i) {
          const auto src = static_cast<topo::NodeId>(rng.below(nodes));
          auto dst = static_cast<topo::NodeId>(rng.below(nodes));
          if (dst == src) dst = (dst + 1) % nodes;
          sink ^= pin.table().firstChannels(src, dst).size();
        }
      }
      (void)sink;
    });
  }
  while (registered.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }

  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[2] = 0;
  EXPECT_TRUE(fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/true).ok);
  linksUp[2] = 1;
  EXPECT_TRUE(fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/true).ok);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  while (fm.tryReclaim(), fm.retiredCount() != 0) {
    std::this_thread::yield();
  }

  EXPECT_EQ(metrics.publishes.load(), 2u);
  EXPECT_EQ(metrics.rebuildsRun.load(), 2u);
  EXPECT_EQ(metrics.rebuildNs.count(), 2u);
  EXPECT_EQ(metrics.readersRegistered.load(),
            static_cast<std::uint64_t>(kReaders));
  EXPECT_GT(metrics.acquireNs.count(), 0u);
  EXPECT_GE(metrics.snapshotLifetimeNs.count(), 1u);
  EXPECT_TRUE(fm.allPublishedOk());

  // The flight recorder holds the matching event sequence.
  std::vector<obs::FabricEvent> events;
  fm.flightRecorder().dump(events);
  std::size_t started = 0, finished = 0, published = 0, reclaimed = 0;
  std::uint64_t lastStartedSeq = 0;
  for (const auto& e : events) {
    switch (e.kind) {
      case obs::FabricEventKind::kRebuildStarted:
        ++started;
        lastStartedSeq = e.seq;
        break;
      case obs::FabricEventKind::kRebuildFinished:
        ++finished;
        EXPECT_GT(e.seq, lastStartedSeq);
        EXPECT_EQ(e.c, 1u) << "a published epoch failed verification";
        break;
      case obs::FabricEventKind::kPublish: ++published; break;
      case obs::FabricEventKind::kReclaim: ++reclaimed; break;
      default: break;
    }
  }
  EXPECT_EQ(started, 2u);
  EXPECT_EQ(finished, 2u);
  EXPECT_EQ(published, 2u);
  EXPECT_EQ(reclaimed, 2u);

  // Each publish is one closed `rebuild` root span.
  const auto all = spans.snapshot();
  std::size_t roots = 0;
  for (const auto& s : all) {
    EXPECT_GT(s.endNs, 0u) << s.name << " left open";
    if (s.parent == util::SpanRecorder::kNoParent) {
      EXPECT_STREQ(s.name, "rebuild");
      ++roots;
    }
  }
  EXPECT_EQ(roots, 2u);
}

}  // namespace
}  // namespace downup::fabric
