// Control-plane span tracing: recorder nesting/threading semantics, the
// exporters' output shape, and the two inertness guarantees — a null
// recorder is a no-op at every call site, and an attached recorder leaves
// a fault-injection simulation bit-for-bit identical.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/downup_routing.hpp"
#include "fault/schedule.hpp"
#include "obs/observer.hpp"
#include "sim/engine.hpp"
#include "topology/generate.hpp"
#include "util/perf_counters.hpp"

namespace downup {
namespace {

using util::ScopedSpan;
using util::SpanRecorder;

TEST(SpanRecorderTest, NestingTracksParentAndDepthPerThread) {
  SpanRecorder rec;
  {
    ScopedSpan root(&rec, "rebuild");
    root.arg("batch", 3);
    {
      ScopedSpan child(&rec, "table_build");
      { ScopedSpan grandchild(&rec, "bfs"); }
      { ScopedSpan grandchild(&rec, "candidate_fill"); }
    }
    { ScopedSpan child(&rec, "publish"); }
  }
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_STREQ(spans[0].name, "rebuild");
  EXPECT_EQ(spans[0].parent, SpanRecorder::kNoParent);
  EXPECT_EQ(spans[0].depth, 0);
  ASSERT_EQ(spans[0].argCount, 1);
  EXPECT_STREQ(spans[0].args[0].key, "batch");
  EXPECT_DOUBLE_EQ(spans[0].args[0].value, 3.0);

  EXPECT_STREQ(spans[1].name, "table_build");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_STREQ(spans[2].name, "bfs");
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_STREQ(spans[3].name, "candidate_fill");
  EXPECT_EQ(spans[3].parent, 1u);
  EXPECT_STREQ(spans[4].name, "publish");
  EXPECT_EQ(spans[4].parent, 0u);
  EXPECT_EQ(spans[4].depth, 1);

  // Every span closed, children contained in their parents.
  for (const auto& s : spans) {
    EXPECT_GT(s.endNs, 0u) << s.name;
    if (s.parent != SpanRecorder::kNoParent) {
      EXPECT_GE(s.startNs, spans[s.parent].startNs) << s.name;
      EXPECT_LE(s.endNs, spans[s.parent].endNs) << s.name;
    }
  }
}

TEST(SpanRecorderTest, NullRecorderIsANoOpEverywhere) {
  ScopedSpan span(nullptr, "rebuild");
  span.arg("ignored", 1.0);
  span.close();  // idempotent, no recorder to touch
}

TEST(SpanRecorderTest, ExtraArgsBeyondTheCapAreDropped) {
  SpanRecorder rec;
  {
    ScopedSpan span(&rec, "rebuild");
    for (int i = 0; i < 10; ++i) span.arg("k", i);
  }
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].argCount, SpanRecorder::kMaxArgs);
}

TEST(SpanRecorderTest, ThreadsGetDenseIndependentTracks) {
  SpanRecorder rec;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      for (int i = 0; i < 8; ++i) {
        ScopedSpan outer(&rec, "outer");
        ScopedSpan inner(&rec, "inner");
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), kThreads * 16u);
  std::vector<std::uint32_t> tids;
  for (const auto& s : spans) {
    tids.push_back(s.tid);
    // Nesting never crosses threads: a child's parent has the same tid.
    if (s.parent != SpanRecorder::kNoParent) {
      EXPECT_EQ(spans[s.parent].tid, s.tid);
      EXPECT_STREQ(s.name, "inner");
    } else {
      EXPECT_STREQ(s.name, "outer");
    }
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(tids.back(), static_cast<std::uint32_t>(kThreads - 1));
}

TEST(SpanRecorderTest, ThreadKeepsOneTrackAcrossInterleavedRecorders) {
  // One thread alternating between two recorders is one track on each.
  SpanRecorder r1;
  SpanRecorder r2;
  { ScopedSpan span(&r2, "b"); }
  { ScopedSpan span(&r1, "a"); }
  { ScopedSpan span(&r2, "b"); }
  { ScopedSpan span(&r1, "a"); }
  for (const SpanRecorder* rec : {&r1, &r2}) {
    const auto spans = rec->snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].tid, 0u);
    EXPECT_EQ(spans[1].tid, 0u);
  }
}

TEST(SpanRecorderTest, RecorderAtAFreedRecordersAddressStartsFresh) {
  // A recorder built where a freed one lived must not inherit the old
  // recorder's thread indices: here the main thread and a new thread must
  // still land on two tracks.
  alignas(SpanRecorder) unsigned char storage[sizeof(SpanRecorder)];
  auto* old = new (storage) SpanRecorder();
  { ScopedSpan span(old, "old"); }
  old->~SpanRecorder();

  auto* rec = new (storage) SpanRecorder();
  { ScopedSpan span(rec, "main"); }
  std::thread([rec] { ScopedSpan span(rec, "worker"); }).join();
  const auto spans = rec->snapshot();
  rec->~SpanRecorder();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].tid, 0u);
  EXPECT_EQ(spans[1].tid, 1u);
}

TEST(SpanRecorderTest, ClearDropsRecordedSpans) {
  SpanRecorder rec;
  { ScopedSpan span(&rec, "rebuild"); }
  EXPECT_EQ(rec.size(), 1u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  { ScopedSpan span(&rec, "rebuild"); }
  EXPECT_EQ(rec.size(), 1u);
}

TEST(SpanExportTest, JsonlCarriesSchemaAndOneRecordPerSpan) {
  SpanRecorder rec;
  {
    ScopedSpan root(&rec, "rebuild");
    ScopedSpan child(&rec, "table_build");
    child.arg("destinations", 24);
  }
  std::ostringstream out;
  obs::writeSpansJsonl(rec, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"schema\":\"obs_spans/2\""), std::string::npos);
  EXPECT_NE(text.find("\"gitRev\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"rebuild\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"table_build\""), std::string::npos);
  EXPECT_NE(text.find("\"destinations\":24"), std::string::npos);
  // No counter group was ever attached: the meta must say so explicitly
  // (the "never silent zeros" contract) and no span may carry counters.
  EXPECT_NE(text.find("\"counters\":\"detached\""), std::string::npos);
  EXPECT_EQ(text.find("\"ipc\""), std::string::npos);
  EXPECT_EQ(text.find("\"alloc\""), std::string::npos);
  EXPECT_EQ(text.find("aggregate"), std::string::npos);
  // One meta line + one line per span.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(SpanExportTest, CounterMetaReportsAvailabilityNeverSilently) {
  // Pin the fallback path deterministically with a force-disabled group:
  // the meta must carry the status and the reason.
  util::PerfCounterGroup disabled(
      util::PerfCounterGroup::Options{.disabled = true});
  SpanRecorder rec;
  rec.attachCounters(&disabled);
  { ScopedSpan span(&rec, "rebuild"); }
  std::ostringstream out;
  obs::writeSpansJsonl(rec, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"counters\":\"unavailable\""), std::string::npos);
  EXPECT_NE(text.find("\"countersReason\":\"disabled by caller\""),
            std::string::npos);
  EXPECT_EQ(text.find("\"ipc\""), std::string::npos);

  // A live group: whatever subset the environment opened must be declared
  // in the meta, and spans on the attaching thread carry exactly that
  // subset.
  util::PerfCounterGroup live;
  if (live.available()) {
    SpanRecorder counted;
    counted.attachCounters(&live);
    { ScopedSpan span(&counted, "rebuild"); }
    std::ostringstream out2;
    obs::writeSpansJsonl(counted, out2);
    const std::string text2 = out2.str();
    const bool full =
        live.eventMask() == ((1u << util::kPerfEventCount) - 1u);
    EXPECT_NE(text2.find(full ? "\"counters\":\"available\""
                              : "\"counters\":\"partial\""),
              std::string::npos);
    EXPECT_NE(text2.find("\"counterEvents\":["), std::string::npos);
    const auto spans = counted.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].counters.mask, live.eventMask());
  }
}

TEST(SpanExportTest, ChromeTraceEmitsCompleteEventsPerfettoCanLoad) {
  SpanRecorder rec;
  {
    ScopedSpan root(&rec, "rebuild");
    ScopedSpan child(&rec, "publish");
  }
  std::ostringstream out;
  obs::writeSpansChromeTrace(rec, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"rebuild\""), std::string::npos);
  EXPECT_NE(text.find("process_name"), std::string::npos);
  // Valid JSON needs the array closed.
  EXPECT_EQ(text.back(), '\n');
  EXPECT_NE(text.find("]"), std::string::npos);
}

TEST(SpanInertnessTest, ControlPlaneSpansLeaveFaultRunBitForBitIdentical) {
  // The reconfiguration pipeline is the instrumented path, so compare a
  // run that actually rebuilds mid-flight: same schedule, observer with
  // control-plane spans on vs no observer at all.
  util::Rng topoRng(2024);
  const topo::Topology topo =
      topo::randomIrregular(24, {.maxPorts = 4}, topoRng);
  util::Rng treeRng(7);
  const auto ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing routing = core::buildDownUp(topo, ct);
  const auto schedule =
      fault::FaultSchedule::randomLinkFailures(topo, 2, 800, 400, 5);
  const sim::UniformTraffic traffic(topo.nodeCount());

  sim::SimConfig config;
  config.packetLengthFlits = 8;
  config.warmupCycles = 500;
  config.measureCycles = 3000;
  config.seed = 12345;
  config.reconfigLatencyCycles = 50;
  config.faultSchedule = &schedule;

  sim::WormholeNetwork bare(routing.table(), traffic, 0.10, config);
  const sim::RunStats expected = bare.run();
  ASSERT_GT(expected.reconfigurations, 0u);

  obs::Observer observer({.controlPlaneSpans = true}, topo, &ct);
  sim::SimConfig observed = config;
  observed.observer = &observer;
  sim::WormholeNetwork traced(routing.table(), traffic, 0.10, observed);
  const sim::RunStats actual = traced.run();

  EXPECT_EQ(actual.cycles, expected.cycles);
  EXPECT_EQ(actual.packetsGenerated, expected.packetsGenerated);
  EXPECT_EQ(actual.packetsEjectedMeasured, expected.packetsEjectedMeasured);
  EXPECT_EQ(actual.flitsEjectedMeasured, expected.flitsEjectedMeasured);
  EXPECT_EQ(actual.reconfigurations, expected.reconfigurations);
  EXPECT_EQ(actual.packetsDroppedInFlight, expected.packetsDroppedInFlight);
  EXPECT_DOUBLE_EQ(actual.avgLatency, expected.avgLatency);
  EXPECT_DOUBLE_EQ(actual.p50Latency, expected.p50Latency);
  EXPECT_DOUBLE_EQ(actual.p99Latency, expected.p99Latency);
  ASSERT_EQ(actual.channelUtilization.size(),
            expected.channelUtilization.size());
  for (std::size_t c = 0; c < actual.channelUtilization.size(); ++c) {
    EXPECT_DOUBLE_EQ(actual.channelUtilization[c],
                     expected.channelUtilization[c]);
  }

  // And the recorder actually captured the rebuilds it watched.
  ASSERT_NE(observer.controlPlaneSpans(), nullptr);
  const auto spans = observer.controlPlaneSpans()->snapshot();
  std::size_t rebuildRoots = 0;
  for (const auto& s : spans) {
    if (std::strcmp(s.name, "rebuild") == 0 &&
        s.parent == SpanRecorder::kNoParent) {
      ++rebuildRoots;
    }
  }
  EXPECT_EQ(rebuildRoots, expected.reconfigurations);
}

}  // namespace
}  // namespace downup
