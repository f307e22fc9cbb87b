// FabricManager: routing as a long-lived service instead of a simulator
// subroutine.
//
// The manager owns the epoch-swap publication machinery (fabric/epoch.hpp)
// and a Reconfigurator, and serves an immutable routing-table snapshot to
// any number of reader threads while rebuilds happen off to the side.
//
// One writer thread calls publishFromMasks() with the current alive masks
// (the simulator passes FaultController's).  DOWN/UP derives its tree,
// channel directions, release pass and routes from the communication graph
// alone, so the masks are the whole rebuild input: the manager rebuilds
// (full, or incremental against the epoch being replaced) and ALWAYS
// publishes.  The Reconfigurator sees exactly the inputs of the historical
// in-place engine swap, so every published table is bit-for-bit the one
// that path produced.
//
// Reader threads call makeReader() once and acquire()/release pins around
// lookups; the read path is the lock-free protocol documented in
// fabric/epoch.hpp.  tryReclaim() runs on the writer after each publish
// (and opportunistically), so retired epochs disappear as soon as the last
// pinned reader moves on.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "fabric/epoch.hpp"
#include "fault/reconfigure.hpp"
#include "obs/flight_recorder.hpp"

namespace downup::verify {
class OracleGate;
}

namespace downup::fabric {

/// What one writer-side publish attempt did (scalars only; the table itself
/// is reachable through acquire()).
struct PublishResult {
  std::uint64_t epoch = 0;    // epoch now current
  bool published = false;     // every publishFromMasks call publishes
  bool incremental = false;   // rebuild kept the previous turn rule
  std::uint32_t rebuiltDestinations = 0;
  std::uint64_t unreachablePairs = 0;
  unsigned components = 0;
  bool ok = false;            // deadlock-free + components connected
};

class FabricManager final {
 public:
  struct Options {
    std::size_t maxReaders = 64;
    /// Optional pool for parallel table construction (outcomes identical
    /// at any width).  Must outlive the manager.
    util::ThreadPool* pool = nullptr;
    /// Optional span recorder: every publish emits a `rebuild` root span
    /// with construction and publish children (see obs/span.hpp for the
    /// tree).  Must outlive the manager; nullptr (the default) costs one
    /// branch per stage.
    util::SpanRecorder* spans = nullptr;
    /// Optional service metrics (fabric/metrics.hpp): pin-acquire latency,
    /// snapshot lifetimes, retire-list depth, the rebuild ledger.  Must
    /// outlive the manager; attach before readers start.
    FabricMetrics* metrics = nullptr;
    /// Flight-recorder ring capacity (entries; rounded up to a power of
    /// two).  The recorder itself is always on — see flightRecorder().
    std::size_t flightCapacity = 1024;
    /// Optional independent deadlock oracle (verify/gate.hpp).  When set,
    /// the manager audits every epoch at "epoch_publish" just before it
    /// goes live.  A violation records a kOracleViolation anomaly and bumps
    /// oracleViolations() but never blocks the publish: enforcement stays
    /// with the caller so simulation determinism holds.  Must outlive the
    /// manager.
    verify::OracleGate* oracle = nullptr;
  };

  /// `topo` and `baseline` (the healthy epoch-0 table) must outlive the
  /// manager.
  FabricManager(const topo::Topology& topo,
                const routing::RoutingTable& baseline, Options options);
  FabricManager(const topo::Topology& topo,
                const routing::RoutingTable& baseline)
      : FabricManager(topo, baseline, Options{}) {}

  FabricManager(const FabricManager&) = delete;
  FabricManager& operator=(const FabricManager&) = delete;

  // --- reader side ---
  Reader makeReader() { return publisher_.makeReader(); }
  PinnedSnapshot acquire(Reader& reader) { return publisher_.acquire(reader); }
  std::uint64_t currentEpoch() const noexcept {
    return publisher_.currentEpoch();
  }
  /// True while a rebuild is between its start and its publish — readers
  /// can use this to classify lookups that overlap a reconfiguration.
  bool rebuildActive() const noexcept {
    return rebuildActive_.load(std::memory_order_acquire);
  }

  /// The always-on bounded ring of recent control-plane events (rebuild
  /// started/finished, publish, reclaim, anomaly).  Dump it on demand or
  /// after an anomaly; recording from any thread is lock-free and
  /// allocation-free.
  obs::FlightRecorder& flightRecorder() noexcept { return flight_; }
  const obs::FlightRecorder& flightRecorder() const noexcept {
    return flight_;
  }

  /// The attached metrics, or nullptr when none were configured.
  FabricMetrics* metrics() const noexcept { return options_.metrics; }

  // --- writer side (one thread) ---

  /// Rebuilds from the given alive masks and publishes the next epoch
  /// unconditionally.  `incremental` rebuilds against the epoch being
  /// replaced when possible.
  PublishResult publishFromMasks(std::span<const std::uint8_t> linkAlive,
                                 std::span<const std::uint8_t> nodeAlive,
                                 bool incremental);

  /// Fraction of per-destination routing work an incremental rebuild from
  /// the CURRENT epoch would redo under these masks (1.0 when the
  /// incremental path cannot apply).  Writer thread only.
  double incrementalDirtyFraction(
      std::span<const std::uint8_t> linkAlive,
      std::span<const std::uint8_t> nodeAlive) const;

  /// Frees retired epochs no reader still pins (writer thread only).
  std::size_t tryReclaim() { return publisher_.tryReclaim(); }
  std::size_t retiredCount() const noexcept {
    return publisher_.retiredCount();
  }
  std::uint64_t reclaimedCount() const noexcept {
    return publisher_.reclaimedCount();
  }

  // --- statistics (atomics; readable from any thread) ---
  std::uint64_t rebuilds() const noexcept {
    return rebuilds_.load(std::memory_order_relaxed);
  }
  std::uint64_t rebuildsIncremental() const noexcept {
    return rebuildsIncremental_.load(std::memory_order_relaxed);
  }
  /// False once any published epoch failed verification.
  bool allPublishedOk() const noexcept {
    return allOk_.load(std::memory_order_relaxed);
  }
  /// Epoch publishes the oracle rejected (0 when no oracle is attached).
  std::uint64_t oracleViolations() const noexcept {
    return oracleViolations_.load(std::memory_order_relaxed);
  }

 private:
  const topo::Topology* topo_;
  fault::Reconfigurator reconfigurator_;
  EpochPublisher publisher_;
  Options options_;
  obs::FlightRecorder flight_;

  std::atomic<bool> rebuildActive_{false};

  std::atomic<std::uint64_t> rebuilds_{0};
  std::atomic<std::uint64_t> rebuildsIncremental_{0};
  std::atomic<bool> allOk_{true};
  std::atomic<std::uint64_t> oracleViolations_{0};
};

}  // namespace downup::fabric
