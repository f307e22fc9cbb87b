// Always-on flight recorder for control-plane events.
//
// A bounded lock-free ring of the most recent fabric events (rebuilds,
// publishes, reclaims, anomalies), recorded unconditionally — unlike spans
// and metrics, the recorder is cheap enough (a ticket fetch_add plus a
// handful of relaxed atomic stores, no allocation, no locks) to stay on in
// production, so a post-mortem after an anomaly (an unverified routing
// epoch, a wait-for hard cycle) can dump the event sequence that led up to
// it without re-running the scenario.
//
// Concurrency: any thread may record(); writers claim a slot with one
// fetch_add ticket and publish it with a per-slot stamp (seqlock flavor).
// dump() is a wait-free read-only scan from any thread: it re-reads each
// slot's stamp around the payload copy and discards slots a concurrent
// writer was mutating, so a dump taken mid-burst yields a consistent
// (possibly slightly shorter) history.  Payload fields are relaxed atomics
// — individually untearable, with cross-field consistency guaranteed by
// the stamp check — so the protocol is fully visible to ThreadSanitizer.
//
// Timestamps are steady_clock nanoseconds since the recorder's
// construction; `cycle` carries the simulator cycle where the event has one
// (the anomalies the engine records), 0 otherwise.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

namespace downup::obs {

enum class FabricEventKind : std::uint8_t {
  kRebuildStarted,   // a = incremental requested
  kRebuildFinished,  // a = epoch, b = rebuilt destinations, c = ok
  kPublish,          // a = epoch, b = retired-list depth after publish
  kReclaim,          // a = snapshots freed, b = retired remaining
  kAnomaly,          // a = AnomalyCode
};

const char* toString(FabricEventKind kind) noexcept;

enum class AnomalyCode : std::uint8_t {
  kUnverifiedRouting = 0,  // a published epoch failed verification
  kWaitForHardCycle = 1,   // the wait-for sampler found a hard deadlock
  kOracleViolation = 2,    // the independent deadlock oracle rejected a
                           // routing snapshot (verify/gate.hpp)
};

const char* toString(AnomalyCode code) noexcept;

struct FabricEvent {
  std::uint64_t seq = 0;     // global record order (monotone)
  std::uint64_t timeNs = 0;  // since recorder construction
  std::uint64_t cycle = 0;
  FabricEventKind kind = FabricEventKind::kRebuildStarted;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (default keeps the ring
  /// around 100 KiB).
  explicit FlightRecorder(std::size_t capacity = 1024);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event (any thread, lock-free, allocation-free).
  void record(FabricEventKind kind, std::uint64_t cycle = 0,
              std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t c = 0) noexcept;

  std::size_t capacity() const noexcept { return slots_.size(); }
  /// Total events ever recorded (>= capacity() means the ring wrapped).
  std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

  /// Copies the surviving events into `out` (cleared first), oldest first.
  /// Returns the number of events dumped.  Safe concurrent with writers.
  std::size_t dump(std::vector<FabricEvent>& out) const;

  /// Dumps as JSONL: a `meta` record, then one `event` record per
  /// surviving event in sequence order.
  void writeJsonl(std::ostream& out) const;

 private:
  struct Slot {
    // Stamp protocol: (ticket << 1) while the writer fills the payload,
    // (ticket << 1) | 1 once published.  Readers accept a slot only when
    // the stamp is published and unchanged across the payload copy.
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<std::uint64_t> timeNs{0};
    std::atomic<std::uint64_t> cycle{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint64_t> c{0};
    std::atomic<std::uint8_t> kind{0};
  };

  std::uint64_t nowNs() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<Slot[]> slots_backing_;
  std::span<Slot> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace downup::obs
