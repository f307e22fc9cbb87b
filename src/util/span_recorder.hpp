// Wall-clock span tracing for the control plane (routing construction and
// the fabric rebuild pipeline), with optional micro-architectural counter
// deltas and allocation attribution per span.
//
// The recorder lives in util/ — the bottom layer — so that routing/, core/,
// fault/ and fabric/ can all emit spans without a dependency on obs/ (which
// itself depends on routing/).  obs/span.hpp re-exports the type under the
// obs namespace and owns the JSONL / Perfetto exporters; callers above the
// routing layer should include that header instead.
//
// Contract (mirrors the simulator observability discipline):
//   * every hook is guarded by a null check — a component handed a nullptr
//     recorder performs no clock read, no allocation, no synchronization;
//   * spans never draw RNG and never alter scheduling, so instrumented
//     builds stay bit-for-bit identical to uninstrumented ones;
//   * begin/end pairs nest per thread (ScopedSpan enforces this); spans
//     from different threads interleave freely and carry a dense per-thread
//     index for the exporters (one index per thread for the recorder's
//     lifetime, assigned in first-begin order);
//   * recording is thread-safe behind one mutex — control-plane events are
//     rare (rebuilds per second, not packets per cycle), so contention is
//     not a concern and the simple structure keeps dump() trivially
//     consistent.
//
// Two opt-in extensions share the substrate:
//   * attachCounters(PerfCounterGroup*): spans begun on the counter group's
//     owning thread carry counter deltas (cycles, instructions, cache and
//     branch misses — whatever subset the environment opened; see
//     util/perf_counters.hpp for the availability model).  Deltas include
//     child spans, so nesting is monotone: child <= parent per event.
//   * setAllocTracking(true): allocation count + bytes are charged to the
//     thread's INNERMOST open span (exclusive attribution — parents do not
//     include children).  Requires the binary to route the global
//     allocation functions through util::noteAllocation (the
//     util/alloc_hooks.hpp pattern the zero-allocation test binaries
//     already use); without the hooks the spans just report zero with
//     allocTracked set, never silently.  The charge path reads and writes
//     thread-locals only — no locks, no allocation — so it is reentrancy-
//     safe under the global-new override and costs one thread-local read
//     when no tracked span is open.
//
// Timestamps are steady_clock nanoseconds relative to the recorder's
// construction, so one recorder shared across threads yields one coherent
// timeline.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/perf_counters.hpp"

namespace downup::util {

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  static constexpr std::size_t kMaxArgs = 4;

  /// One numeric annotation (name -> value); keys must be string literals
  /// (the recorder stores the pointer, not a copy).
  struct Arg {
    const char* key = nullptr;
    double value = 0.0;
  };

  struct Span {
    const char* name = nullptr;  // static string
    std::uint32_t parent = kNoParent;  // index into the span list
    std::uint32_t tid = 0;       // dense per-recorder thread index
    std::uint16_t depth = 0;     // root = 0
    std::uint64_t startNs = 0;   // since recorder construction
    std::uint64_t endNs = 0;     // 0 while still open
    std::array<Arg, kMaxArgs> args{};
    std::uint8_t argCount = 0;
    /// Counter deltas over the span (children included); mask == 0 when the
    /// recorder had no counters, the group was unavailable, or the span ran
    /// on a non-counting thread — absent, never zero.
    PerfCounts counters{};
    /// Allocations charged to this span exclusively (innermost-span
    /// attribution); meaningful only when allocTracked.
    std::uint64_t allocCount = 0;
    std::uint64_t allocBytes = 0;
    bool allocTracked = false;

    std::uint64_t durationNs() const noexcept {
      return endNs >= startNs ? endNs - startNs : 0;
    }
  };

  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread, nested under the thread's
  /// innermost open span.  `name` must be a string literal (stored by
  /// pointer).  Returns the span's index.
  std::uint32_t begin(const char* name);

  /// Closes the span `index` (must be the calling thread's innermost open
  /// span — ScopedSpan guarantees this).
  void end(std::uint32_t index);

  /// Attaches a numeric annotation to an open span (up to kMaxArgs;
  /// further args are dropped).
  void addArg(std::uint32_t index, const char* key, double value);

  /// Attaches a counter group: spans begun on the CALLING thread (which
  /// must be the group's constructing thread for the numbers to mean
  /// anything) carry counter deltas from here on.  nullptr detaches.
  /// Attach before recording — not thread-safe against concurrent begins.
  void attachCounters(PerfCounterGroup* counters);
  const PerfCounterGroup* counters() const noexcept { return counters_; }

  /// Opts spans into allocation attribution via util::noteAllocation.
  /// Toggle before recording; spans begun while enabled mark allocTracked.
  void setAllocTracking(bool enabled) noexcept { allocTracking_ = enabled; }
  bool allocTracking() const noexcept { return allocTracking_; }

  /// Snapshot of every recorded span (closed or still open), in begin
  /// order.  Safe to call from any thread.
  std::vector<Span> snapshot() const;

  std::size_t size() const;

  /// Drops every recorded span (thread indices survive).  Call between
  /// runs, not while spans are open — frames still on a thread's stack
  /// would dangle into the next recording.
  void clear();

  /// Nanoseconds since the recorder's construction (the span timebase).
  std::uint64_t nowNs() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  std::uint32_t threadIndexLocked();

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  // Dense tid = position of the thread's id here, searched under mutex_ (a
  // recorder sees a handful of threads).  Owned by the recorder, so no
  // per-thread cache can outlive it or confuse two recorders.
  std::vector<std::thread::id> threads_;
  PerfCounterGroup* counters_ = nullptr;
  std::thread::id counterThread_{};
  bool allocTracking_ = false;
};

/// Allocation hook entry point: binaries that override the global
/// allocation functions (util/alloc_hooks.hpp, or a test's own counting
/// override) call this with every allocation's size.  Charges the
/// calling thread's innermost open alloc-tracking span; one thread-local
/// read and nothing else when no such span is open.  Never allocates,
/// never locks — safe to call from inside operator new.
void noteAllocation(std::size_t bytes) noexcept;

/// RAII span: no-op when the recorder is null, so call sites read
///   ScopedSpan span(spans, "bfs");
///   span.arg("destinations", n);
/// and cost one branch when tracing is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->begin(name) : 0) {}
  ~ScopedSpan() { close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(const char* key, double value) {
    if (recorder_ != nullptr) recorder_->addArg(index_, key, value);
  }

  /// Closes the span early (idempotent).
  void close() {
    if (recorder_ != nullptr) {
      recorder_->end(index_);
      recorder_ = nullptr;
    }
  }

 private:
  SpanRecorder* recorder_;
  std::uint32_t index_;
};

}  // namespace downup::util
