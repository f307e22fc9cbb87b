// Per-span allocation attribution, asserted through a real global-new
// override: heap traffic is charged to the calling thread's INNERMOST
// alloc-tracking span (exclusive attribution), threads charge their own
// spans independently, and the disabled path — no tracking span open, or a
// null recorder — performs zero allocations of its own.
//
// Technique (same as tests/obs/zero_overhead_test.cpp, one override per
// test binary): the global allocation functions are replaced with wrappers
// that feed util::noteAllocation — exactly what util/alloc_hooks.hpp does
// in the benches — plus an off-by-default counter for the zero-allocation
// assertions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string_view>
#include <thread>

#include "util/span_recorder.hpp"

namespace {

std::atomic<bool> g_countAllocations{false};
std::atomic<std::uint64_t> g_allocations{0};

void* countedAlloc(std::size_t size) {
  if (g_countAllocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) downup::util::noteAllocation(size);
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace downup::util {
namespace {

// Direct calls to the allocation functions: a new-EXPRESSION paired with
// its delete may legally be elided at -O2, which would bypass the hooks
// entirely; direct operator-new calls may not.
void heapChurn(std::size_t bytes, int count) {
  for (int i = 0; i < count; ++i) {
    void* p = ::operator new(bytes);
    ::operator delete(p);
  }
}

TEST(AllocAttributionTest, ChargesTheInnermostTrackingSpanExclusively) {
  SpanRecorder rec;
  rec.setAllocTracking(true);
  {
    ScopedSpan outer(&rec, "rebuild");
    heapChurn(1000, 2);
    {
      ScopedSpan inner(&rec, "table_build");
      heapChurn(100000, 3);
    }
    // After the inner span closes, charges must flow to the outer span
    // again (the tracking chain restores on pop).
    heapChurn(1000, 1);
  }
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const auto& outer = spans[0];
  const auto& inner = spans[1];
  ASSERT_EQ(inner.depth, 1u);

  EXPECT_TRUE(outer.allocTracked);
  EXPECT_TRUE(inner.allocTracked);
  // The inner scope performed exactly three heap allocations.
  EXPECT_EQ(inner.allocCount, 3u);
  EXPECT_EQ(inner.allocBytes, 300000u);
  // The outer span carries its own three 1000-byte allocations plus the
  // recorder's internal bookkeeping for opening the inner span — but NONE
  // of the inner span's 300000 bytes (exclusive attribution).
  EXPECT_GE(outer.allocCount, 3u);
  EXPECT_GE(outer.allocBytes, 3000u);
  EXPECT_LT(outer.allocBytes, 100000u);
}

TEST(AllocAttributionTest, ThreadsChargeTheirOwnSpansIndependently) {
  SpanRecorder rec;
  rec.setAllocTracking(true);
  auto worker = [&rec](const char* name, std::size_t bytes, int count) {
    ScopedSpan span(&rec, name);
    heapChurn(bytes, count);
  };
  std::thread a(worker, "thread_a", 2048, 2);
  std::thread b(worker, "thread_b", 512, 5);
  a.join();
  b.join();

  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  for (const auto& span : spans) {
    if (std::string_view(span.name) == "thread_a") {
      EXPECT_EQ(span.allocCount, 2u);
      EXPECT_EQ(span.allocBytes, 4096u);
    } else {
      ASSERT_EQ(std::string_view(span.name), "thread_b");
      EXPECT_EQ(span.allocCount, 5u);
      EXPECT_EQ(span.allocBytes, 2560u);
    }
    EXPECT_TRUE(span.allocTracked);
  }
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST(AllocAttributionTest, SpansWithoutTrackingReportUntrackedZero) {
  SpanRecorder rec;  // alloc tracking stays at its default: off
  {
    ScopedSpan span(&rec, "rebuild");
    heapChurn(4096, 1);
  }
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].allocTracked);
  EXPECT_EQ(spans[0].allocCount, 0u);
  EXPECT_EQ(spans[0].allocBytes, 0u);
}

TEST(AllocAttributionTest, DisabledPathPerformsZeroAllocations) {
  // The two disabled paths the benches rely on being free:
  //   1. noteAllocation with no tracking span open (every allocation in a
  //      hook-carrying binary pays this),
  //   2. ScopedSpan handed a null recorder (every instrumentation point in
  //      an untraced run).
  g_allocations.store(0);
  g_countAllocations.store(true);
  for (int i = 0; i < 1000; ++i) noteAllocation(64);
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span(nullptr, "rebuild");
    span.arg("batch", 1);
  }
  g_countAllocations.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "disabled-path instrumentation allocated";

  // Control: the counter itself works — real allocations are seen.
  g_allocations.store(0);
  g_countAllocations.store(true);
  heapChurn(16, 100);
  g_countAllocations.store(false);
  EXPECT_EQ(g_allocations.load(), 100u);
}

}  // namespace
}  // namespace downup::util
