#include "util/span_recorder.hpp"

#include <cstring>

namespace downup::util {

namespace {

/// Per-thread stack of open spans, shared across recorders (frames carry
/// the recorder they belong to).  Strict begin/end nesting per thread makes
/// a plain stack sufficient even when two recorders interleave.
struct OpenFrame {
  const SpanRecorder* recorder;
  std::uint32_t index;
  std::uint16_t depth;
  // Counter snapshot at begin(), taken only when the span runs on the
  // recorder's counting thread (hasCounters).
  bool hasCounters = false;
  PerfCounts startCounts{};
  // Allocation attribution: charges accumulate here (no recorder mutex —
  // noteAllocation runs inside operator new) and flush into the Span at
  // end().  prevTracking restores the innermost-tracking chain on pop.
  bool tracksAlloc = false;
  std::uint64_t allocCount = 0;
  std::uint64_t allocBytes = 0;
  std::int32_t prevTracking = -1;
};

thread_local std::vector<OpenFrame> tOpenStack;

/// Index into tOpenStack of the calling thread's innermost alloc-tracking
/// frame, or -1.  Kept as a chain (OpenFrame::prevTracking) so push/pop
/// and noteAllocation are all O(1).
thread_local std::int32_t tTrackingTop = -1;

/// Dense thread index, cached per (thread, recorder).  One cache entry per
/// thread suffices in practice (a thread talks to one recorder at a time);
/// a different recorder simply re-registers.
struct TidCache {
  const SpanRecorder* recorder = nullptr;
  std::uint32_t tid = 0;
};

thread_local TidCache tTidCache;

void popFrame() noexcept {
  if (tOpenStack.back().tracksAlloc) {
    tTrackingTop = tOpenStack.back().prevTracking;
  }
  tOpenStack.pop_back();
}

}  // namespace

void noteAllocation(std::size_t bytes) noexcept {
  if (tTrackingTop < 0) return;
  OpenFrame& frame = tOpenStack[static_cast<std::size_t>(tTrackingTop)];
  frame.allocCount += 1;
  frame.allocBytes += bytes;
}

std::uint32_t SpanRecorder::threadIndexLocked() {
  if (tTidCache.recorder != this) {
    tTidCache.recorder = this;
    tTidCache.tid = threadCount_++;
  }
  return tTidCache.tid;
}

std::uint32_t SpanRecorder::begin(const char* name) {
  const std::uint64_t start = nowNs();
  // Innermost open span of this thread *on this recorder* is the parent.
  std::uint32_t parent = kNoParent;
  std::uint16_t depth = 0;
  for (auto it = tOpenStack.rbegin(); it != tOpenStack.rend(); ++it) {
    if (it->recorder == this) {
      parent = it->index;
      depth = static_cast<std::uint16_t>(it->depth + 1);
      break;
    }
  }
  OpenFrame frame{this, 0, depth};
  if (counters_ != nullptr && counters_->available() &&
      std::this_thread::get_id() == counterThread_) {
    frame.hasCounters = true;
  }
  frame.tracksAlloc = allocTracking_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    frame.index = static_cast<std::uint32_t>(spans_.size());
    Span span;
    span.name = name;
    span.parent = parent;
    span.tid = threadIndexLocked();
    span.depth = depth;
    span.startNs = start;
    span.allocTracked = frame.tracksAlloc;
    spans_.push_back(span);
  }
  // Grow the stack (may allocate — still charged to the parent frame, which
  // is correct: recorder overhead belongs to the enclosing span) before
  // linking this frame into the tracking chain and snapping counters, so
  // neither the counter baseline nor this span's own charge sees the push.
  tOpenStack.push_back(frame);
  OpenFrame& placed = tOpenStack.back();
  if (placed.tracksAlloc) {
    placed.prevTracking = tTrackingTop;
    tTrackingTop = static_cast<std::int32_t>(tOpenStack.size() - 1);
  }
  if (placed.hasCounters) placed.startCounts = counters_->read();
  return placed.index;
}

void SpanRecorder::end(std::uint32_t index) {
  const std::uint64_t now = nowNs();
  bool hasCounters = false;
  PerfCounts counterDelta;
  std::uint64_t allocCount = 0;
  std::uint64_t allocBytes = 0;
  while (!tOpenStack.empty() && tOpenStack.back().recorder == this &&
         tOpenStack.back().index != index) {
    popFrame();  // defensive: drop frames a missed end() leaked
  }
  if (!tOpenStack.empty() && tOpenStack.back().recorder == this) {
    const OpenFrame& frame = tOpenStack.back();
    if (frame.hasCounters && counters_ != nullptr) {
      counterDelta = counters_->read().deltaSince(frame.startCounts);
      hasCounters = true;
    }
    allocCount = frame.allocCount;
    allocBytes = frame.allocBytes;
    popFrame();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (index < spans_.size() && spans_[index].endNs == 0) {
    Span& span = spans_[index];
    span.endNs = now;
    if (hasCounters) span.counters = counterDelta;
    span.allocCount = allocCount;
    span.allocBytes = allocBytes;
  }
}

void SpanRecorder::addArg(std::uint32_t index, const char* key, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= spans_.size()) return;
  Span& span = spans_[index];
  if (span.argCount >= kMaxArgs) return;
  span.args[span.argCount++] = {key, value};
}

void SpanRecorder::attachCounters(PerfCounterGroup* counters) {
  counters_ = counters;
  counterThread_ =
      counters != nullptr ? std::this_thread::get_id() : std::thread::id{};
}

std::uint32_t SpanRecorder::registerAggregate(const char* name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < aggregates_.size(); ++i) {
    if (std::strcmp(aggregates_[i].name, name) == 0) {
      return static_cast<std::uint32_t>(i);
    }
  }
  aggregates_.emplace_back();
  aggregates_.back().name = name;
  return static_cast<std::uint32_t>(aggregates_.size() - 1);
}

void SpanRecorder::accumulate(std::uint32_t id, std::uint64_t ns) noexcept {
  if (id >= aggregates_.size()) return;
  AggregateSlot& slot = aggregates_[id];
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.totalNs.fetch_add(ns, std::memory_order_relaxed);
}

void SpanRecorder::resetAggregate(std::uint32_t id) noexcept {
  if (id >= aggregates_.size()) return;
  AggregateSlot& slot = aggregates_[id];
  slot.count.store(0, std::memory_order_relaxed);
  slot.totalNs.store(0, std::memory_order_relaxed);
}

std::vector<SpanRecorder::Aggregate> SpanRecorder::aggregates() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Aggregate> out;
  out.reserve(aggregates_.size());
  for (const AggregateSlot& slot : aggregates_) {
    Aggregate agg;
    agg.name = slot.name;
    agg.count = slot.count.load(std::memory_order_relaxed);
    agg.totalNs = slot.totalNs.load(std::memory_order_relaxed);
    out.push_back(agg);
  }
  return out;
}

std::uint64_t SpanRecorder::aggregateNs(std::uint32_t id) const noexcept {
  if (id >= aggregates_.size()) return 0;
  return aggregates_[id].totalNs.load(std::memory_order_relaxed);
}

std::uint64_t SpanRecorder::aggregateCount(std::uint32_t id) const noexcept {
  if (id >= aggregates_.size()) return 0;
  return aggregates_[id].count.load(std::memory_order_relaxed);
}

std::vector<SpanRecorder::Span> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  for (std::uint32_t id = 0; id < aggregates_.size(); ++id) {
    resetAggregate(id);
  }
}

}  // namespace downup::util
