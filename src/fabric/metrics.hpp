// Opt-in service metrics for the fabric control plane.
//
// FabricMetrics is a bag of lock-free counters and log-scale latency
// histograms shared by FabricManager and EpochPublisher.  Attach one via
// FabricManager::Options::metrics before readers start; every hook is
// guarded by a null check, so the detached path costs nothing (no clock
// reads, no atomics, no allocation) and the attached path never blocks —
// readers record pin-acquire latency with a handful of relaxed fetch_adds.
//
// The histograms bucket by (octave, 2 mantissa bits) — 4 sub-buckets per
// power of two — so quantiles interpolate to within ~12.5% across the full
// ns..minutes range with a fixed 256-slot footprint and no allocation.
// That is deliberately coarser than util::QuantileSketch: the sketch is
// single-writer and allocates; these histograms take concurrent writers on
// the lock-free read path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>

namespace downup::fabric {

/// Relaxed-atomic running max.
inline void atomicMax(std::atomic<std::uint64_t>& target,
                      std::uint64_t value) noexcept {
  std::uint64_t prev = target.load(std::memory_order_relaxed);
  while (prev < value && !target.compare_exchange_weak(
                             prev, value, std::memory_order_relaxed)) {
  }
}

/// Lock-free log-scale latency histogram (concurrent writers, any-thread
/// snapshot).  Values are nanoseconds.
class LatencyHistogram {
 public:
  static constexpr std::size_t kSubBits = 2;  // 4 sub-buckets per octave
  static constexpr std::size_t kBuckets = 64 << kSubBits;

  void record(std::uint64_t ns) noexcept {
    bins_[bucketOf(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
    atomicMax(max_, ns);
  }

  struct Snapshot {
    std::uint64_t count = 0;
    double meanNs = 0.0;
    double p50Ns = 0.0;
    double p90Ns = 0.0;
    double p99Ns = 0.0;
    std::uint64_t maxNs = 0;
  };

  /// Point-in-time summary; consistent enough under concurrent writers
  /// (counters are monotone, so quantiles are at worst slightly stale).
  Snapshot snapshot() const;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  static std::size_t bucketOf(std::uint64_t ns) noexcept {
    const int msb = 63 - __builtin_clzll(ns | 1);
    const std::size_t sub =
        msb >= static_cast<int>(kSubBits)
            ? (ns >> (msb - kSubBits)) & ((1u << kSubBits) - 1)
            : 0;
    return (static_cast<std::size_t>(msb) << kSubBits) | sub;
  }
  /// Inclusive value range covered by bucket `i` (quantile interpolation).
  static void bucketRange(std::size_t i, double& lo, double& hi) noexcept;

  std::array<std::atomic<std::uint64_t>, kBuckets> bins_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// The fabric manager's control-plane metrics.  All fields are readable
/// from any thread at any time.
struct FabricMetrics {
  // --- read path ---
  LatencyHistogram acquireNs;  // PinnedSnapshot acquisition latency

  // --- epoch lifecycle ---
  LatencyHistogram rebuildNs;           // rebuild-and-publish duration
  LatencyHistogram snapshotLifetimeNs;  // publish -> reclaim per epoch
  std::atomic<std::uint64_t> publishes{0};
  std::atomic<std::uint64_t> reclaims{0};
  std::atomic<std::uint64_t> retireDepthMax{0};  // retired list high-water
  std::atomic<std::uint64_t> readersRegistered{0};
  std::atomic<std::uint64_t> readerPinnedMax{0};  // pinned slots high-water

  // --- rebuild ledger ---
  std::atomic<std::uint64_t> rebuildsRun{0};
  std::atomic<std::uint64_t> rebuildsIncremental{0};
  std::atomic<std::uint64_t> dirtyDestinationsTotal{0};
  std::atomic<std::uint64_t> dirtyDestinationsMax{0};

  /// One JSON object (no trailing newline) with every counter and
  /// histogram snapshot — appended to bench rows and --metrics-out lines.
  void writeJson(std::ostream& out) const;
};

}  // namespace downup::fabric
