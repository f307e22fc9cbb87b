// Span hooks in the construction pipeline are inert: an attached recorder
// never changes what gets built.  Instrumented RoutingTable::build,
// rebuildDead and the full buildDownUp pipeline must produce bit-for-bit
// the tables their uninstrumented twins produce (the recorder only reads
// the clock — it never draws RNG or alters scheduling).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/downup_routing.hpp"
#include "routing/routing_table.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/span_recorder.hpp"
#include "util/thread_pool.hpp"

namespace downup::routing {
namespace {

struct Fixture {
  Fixture() : topo(makeTopology()), ct(makeTree(topo)) {}

  static topo::Topology makeTopology() {
    util::Rng rng(2024);
    return topo::randomIrregular(32, {.maxPorts = 4}, rng);
  }
  static tree::CoordinatedTree makeTree(const topo::Topology& topo) {
    util::Rng rng(7);
    return tree::CoordinatedTree::build(topo,
                                        tree::TreePolicy::kM1SmallestFirst,
                                        rng);
  }

  topo::Topology topo;
  tree::CoordinatedTree ct;
};

TEST(SpanInertTest, InstrumentedBuildMatchesPlainBuildSerialAndParallel) {
  const Fixture f;
  const routing::Routing plain = core::buildDownUp(f.topo, f.ct);
  const TurnPermissions& perms = plain.permissions();

  util::SpanRecorder spans;
  const RoutingTable serial = RoutingTable::build(perms, nullptr, {}, &spans);
  EXPECT_TRUE(serial.identicalTo(plain.table()));

  util::ThreadPool pool(4);
  const RoutingTable parallel = RoutingTable::build(perms, &pool, {}, &spans);
  EXPECT_TRUE(parallel.identicalTo(plain.table()));

  // The recorder saw both builds and annotated them (32 destinations is
  // below the parallel cutover, so both report the serial path — the point
  // here is inertness, not scheduling).
  const auto all = spans.snapshot();
  std::size_t builds = 0;
  for (const auto& s : all) {
    if (std::strcmp(s.name, "table_build") != 0) continue;
    ++builds;
    bool sawDestinations = false;
    for (std::uint8_t a = 0; a < s.argCount; ++a) {
      if (std::strcmp(s.args[a].key, "destinations") == 0 &&
          s.args[a].value == 32.0) {
        sawDestinations = true;
      }
    }
    EXPECT_TRUE(sawDestinations);
  }
  EXPECT_EQ(builds, 2u);
}

TEST(SpanInertTest, CountersAndAllocTrackingLeaveTheBuildBitForBit) {
  const Fixture f;
  const routing::Routing plain = core::buildDownUp(f.topo, f.ct);

  // Fully armed recorder: a live counter group (whatever subset of events
  // this environment opens) plus allocation tracking.  Neither may change
  // what gets built — counters only read fds, attribution only reads
  // thread-locals.
  util::PerfCounterGroup group;
  util::SpanRecorder spans;
  spans.attachCounters(&group);
  spans.setAllocTracking(true);
  const routing::Routing counted =
      core::buildDownUp(f.topo, f.ct, {.spans = &spans});
  EXPECT_TRUE(counted.table().identicalTo(plain.table()));
  EXPECT_EQ(counted.table().fingerprint(), plain.table().fingerprint());

  ASSERT_GT(spans.size(), 0u);
  for (const auto& s : spans.snapshot()) {
    // Tracking is flagged on every span; this binary does not install the
    // global-new hooks, so charges stay zero — visible as "hooks absent",
    // never as silent success.
    EXPECT_TRUE(s.allocTracked);
    EXPECT_EQ(s.allocBytes, 0u);
    // Counter payloads mirror exactly what the environment granted.
    if (group.available()) {
      EXPECT_EQ(s.counters.mask, group.eventMask());
    } else {
      EXPECT_TRUE(s.counters.empty());
    }
  }

  // Forced-disabled group: same build, spans carry no counter payload.
  util::PerfCounterGroup off(
      util::PerfCounterGroup::Options{.disabled = true});
  util::SpanRecorder offSpans;
  offSpans.attachCounters(&off);
  const routing::Routing untouched =
      core::buildDownUp(f.topo, f.ct, {.spans = &offSpans});
  EXPECT_EQ(untouched.table().fingerprint(), plain.table().fingerprint());
  for (const auto& s : offSpans.snapshot()) {
    EXPECT_TRUE(s.counters.empty());
  }
}

TEST(SpanInertTest, InstrumentedRebuildDeadMatchesPlainRebuild) {
  const Fixture f;
  const routing::Routing plain = core::buildDownUp(f.topo, f.ct);

  // Kill one link's both channels and rebuild incrementally from the
  // healthy table, with and without a recorder.
  std::vector<std::uint64_t> alive((f.topo.channelCount() + 63) / 64, 0);
  for (topo::ChannelId c = 0; c < f.topo.channelCount(); ++c) {
    alive[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
  const topo::ChannelId dead = 4;
  alive[dead >> 6] &= ~(std::uint64_t{1} << (dead & 63));
  const topo::ChannelId dead2 = dead ^ 1;
  alive[dead2 >> 6] &= ~(std::uint64_t{1} << (dead2 & 63));

  const RoutingTable expected =
      *RoutingTable::rebuildDead(plain.table(), nullptr, alive);
  util::SpanRecorder spans;
  const RoutingTable actual = *RoutingTable::rebuildDead(
      plain.table(), nullptr, alive, nullptr, &spans);
  EXPECT_TRUE(actual.identicalTo(expected));
  EXPECT_GT(spans.size(), 0u);
}

TEST(SpanInertTest, InstrumentedDownUpPipelineMatchesPlainPipeline) {
  const Fixture f;
  const routing::Routing plain = core::buildDownUp(f.topo, f.ct);

  util::SpanRecorder spans;
  const routing::Routing traced =
      core::buildDownUp(f.topo, f.ct, {.spans = &spans});
  EXPECT_TRUE(traced.table().identicalTo(plain.table()));
  EXPECT_EQ(traced.table().fingerprint(), plain.table().fingerprint());

  // classify/repair/release/table_build all reported in.
  std::size_t classify = 0, repair = 0, release = 0, build = 0;
  for (const auto& s : spans.snapshot()) {
    if (std::strcmp(s.name, "classify") == 0) ++classify;
    if (std::strcmp(s.name, "repair") == 0) ++repair;
    if (std::strcmp(s.name, "release") == 0) ++release;
    if (std::strcmp(s.name, "table_build") == 0) ++build;
  }
  EXPECT_EQ(classify, 1u);
  EXPECT_EQ(repair, 1u);
  EXPECT_EQ(release, 1u);
  EXPECT_EQ(build, 1u);
}

}  // namespace
}  // namespace downup::routing
