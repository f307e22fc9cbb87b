// Flight recorder: ring semantics (wrap keeps the newest events, sequence
// order survives), the seqlock dump is safe and consistent under concurrent
// writers, and the JSONL dump names every event kind.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace downup::obs {
namespace {

TEST(FlightRecorderTest, RecordsInSequenceWithPayload) {
  FlightRecorder rec(16);
  rec.record(FabricEventKind::kAnomaly, /*cycle=*/100,
             static_cast<std::uint64_t>(AnomalyCode::kWaitForHardCycle),
             /*b=*/7, /*c=*/1);
  rec.record(FabricEventKind::kRebuildStarted, 0, /*incremental=*/1);
  rec.record(FabricEventKind::kRebuildFinished, 0, /*epoch=*/2,
             /*rebuilt=*/24, /*ok=*/1);
  rec.record(FabricEventKind::kPublish, 0, /*epoch=*/2, /*retired=*/1);

  std::vector<FabricEvent> events;
  ASSERT_EQ(rec.dump(events), 4u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, FabricEventKind::kAnomaly);
  EXPECT_EQ(events[0].cycle, 100u);
  EXPECT_EQ(events[0].a,
            static_cast<std::uint64_t>(AnomalyCode::kWaitForHardCycle));
  EXPECT_EQ(events[0].b, 7u);
  EXPECT_EQ(events[0].c, 1u);
  EXPECT_EQ(events[1].kind, FabricEventKind::kRebuildStarted);
  EXPECT_EQ(events[1].a, 1u);
  EXPECT_EQ(events[2].kind, FabricEventKind::kRebuildFinished);
  EXPECT_EQ(events[2].b, 24u);
  EXPECT_EQ(events[3].kind, FabricEventKind::kPublish);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
    EXPECT_LE(events[i - 1].timeNs, events[i].timeNs);
  }
}

TEST(FlightRecorderTest, WrapKeepsTheMostRecentEvents) {
  FlightRecorder rec(4);  // already a power of two
  EXPECT_EQ(rec.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record(FabricEventKind::kPublish, 0, /*epoch=*/i);
  }
  EXPECT_EQ(rec.recorded(), 10u);

  std::vector<FabricEvent> events;
  ASSERT_EQ(rec.dump(events), 4u);
  // Oldest surviving event is seq 6; the dump is the trailing window.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);
    EXPECT_EQ(events[i].a, 6u + i);  // epoch payload rode along
  }
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec(100);
  EXPECT_EQ(rec.capacity(), 128u);
}

TEST(FlightRecorderTest, ConcurrentWritersAndDumpersStayConsistent) {
  // Exercised under TSan in CI: writers hammer the ring while a reader
  // dumps mid-burst.  Every dumped event must be internally consistent
  // (payload a == seq, the writer's invariant) and strictly ordered.
  FlightRecorder rec(64);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        // Payload mirrors the ticket so a torn cross-generation copy is
        // detectable below; writers cannot know their ticket, so mirror
        // via a second dump-side invariant instead: a==b always.
        rec.record(FabricEventKind::kReclaim, i, i, i);
      }
    });
  }
  std::vector<FabricEvent> events;
  for (int pass = 0; pass < 50; ++pass) {
    rec.dump(events);
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].a, events[i].b);  // no mixed-generation payload
      if (i > 0) EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(rec.recorded(), kWriters * kPerWriter);
  // Every slot has published some generation by now (20000 records over 64
  // slots); which generation each holds depends on writer interleaving, so
  // only order and bounds are guaranteed.
  ASSERT_EQ(rec.dump(events), rec.capacity());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_LT(events[i].seq, kWriters * kPerWriter);
    if (i > 0) EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(FlightRecorderTest, JsonlNamesKindsAndAnomalies) {
  FlightRecorder rec(8);
  rec.record(FabricEventKind::kRebuildStarted, 0, 1);
  rec.record(FabricEventKind::kRebuildFinished, 0, 1, 24, 1);
  rec.record(FabricEventKind::kReclaim, 0, 1, 0);
  rec.record(FabricEventKind::kAnomaly, 0,
             static_cast<std::uint64_t>(AnomalyCode::kWaitForHardCycle), 3);

  std::ostringstream out;
  rec.writeJsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"schema\":\"obs_flight/1\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"rebuild_started\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"rebuild_finished\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"reclaim\""), std::string::npos);
  EXPECT_NE(text.find("\"anomaly\":\"waitfor_hard_cycle\""),
            std::string::npos);
  EXPECT_NE(text.find("\"recorded\":4"), std::string::npos);
}

TEST(FlightRecorderTest, EveryKindHasAName) {
  for (std::uint8_t k = 0;
       k <= static_cast<std::uint8_t>(FabricEventKind::kAnomaly); ++k) {
    EXPECT_STRNE(toString(static_cast<FabricEventKind>(k)), "?");
  }
  EXPECT_STRNE(toString(AnomalyCode::kUnverifiedRouting), "?");
  EXPECT_STRNE(toString(AnomalyCode::kWaitForHardCycle), "?");
}

}  // namespace
}  // namespace downup::obs
