// The fabric's zero-cost-when-disabled contract, asserted directly: with
// no metrics or span recorder attached, the reader fast path (pin ->
// lookups -> unpin) performs zero heap allocations, and the always-on
// flight recorder's record() never allocates at all.
//
// Separate binary: overrides the global allocation functions with counting
// wrappers (one override per binary — test_obs's zero_overhead_test
// precedent).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "fabric/manager.hpp"
#include "obs/flight_recorder.hpp"
#include "topology/generate.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> g_countAllocations{false};
std::atomic<std::uint64_t> g_allocations{0};

void* countedAlloc(std::size_t size) {
  if (g_countAllocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace downup::fabric {
namespace {

TEST(FabricAllocTest, ReaderFastPathAllocatesNothingWithHooksDetached) {
  util::Rng topoRng(11);
  const topo::Topology topo =
      topo::randomIrregular(24, {.maxPorts = 4}, topoRng);
  fault::Reconfigurator reconf(topo);
  const std::vector<std::uint8_t> linksUp(topo.linkCount(), 1);
  const std::vector<std::uint8_t> nodesUp(topo.nodeCount(), 1);
  const fault::ReconfigOutcome baseline = reconf.rebuild(linksUp, nodesUp);

  FabricManager fm(topo, *baseline.table);  // no metrics, no spans
  Reader reader = fm.makeReader();

  const auto round = [&] {
    std::uint64_t sink = 0;
    for (int batch = 0; batch < 100; ++batch) {
      PinnedSnapshot pin = fm.acquire(reader);
      for (topo::NodeId src = 0; src < topo.nodeCount(); ++src) {
        const auto dst =
            static_cast<topo::NodeId>((src + 7) % topo.nodeCount());
        sink ^= pin.table().firstChannels(src, dst).size();
        sink ^= pin.table().distance(src, dst);
      }
    }
    return sink;
  };

  round();  // warm-up: any lazy one-time growth happens here
  g_allocations.store(0, std::memory_order_relaxed);
  g_countAllocations.store(true, std::memory_order_relaxed);
  const std::uint64_t sink = round();
  g_countAllocations.store(false, std::memory_order_relaxed);
  asm volatile("" : : "g"(&sink) : "memory");

  EXPECT_EQ(g_allocations.load(), 0u)
      << "reader pin/lookup/unpin allocated with hooks detached";
}

TEST(FabricAllocTest, FlightRecorderRecordNeverAllocates) {
  obs::FlightRecorder rec(64);
  g_allocations.store(0, std::memory_order_relaxed);
  g_countAllocations.store(true, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    rec.record(obs::FabricEventKind::kRebuildFinished, 0, i, i & 7, 1);
  }
  g_countAllocations.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(), 0u) << "flight recorder record() allocated";
  EXPECT_EQ(rec.recorded(), 1000u);
}

TEST(FabricAllocTest, OracleViolationAnomalyRecordNeverAllocates) {
  // The gate's violation path in the fabric ends in exactly this record()
  // call; an allocating anomaly report would be the worst possible time to
  // touch the heap.
  obs::FlightRecorder rec(64);
  g_allocations.store(0, std::memory_order_relaxed);
  g_countAllocations.store(true, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    rec.record(obs::FabricEventKind::kAnomaly, i,
               static_cast<std::uint64_t>(obs::AnomalyCode::kOracleViolation),
               /*epoch=*/i & 15, 0);
  }
  g_countAllocations.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(), 0u) << "anomaly record() allocated";
  EXPECT_EQ(rec.recorded(), 1000u);
}

}  // namespace
}  // namespace downup::fabric
