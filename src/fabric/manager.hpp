// FabricManager: routing as a long-lived service instead of a simulator
// subroutine.
//
// The manager owns the epoch-swap publication machinery (fabric/epoch.hpp),
// the fault-transition queue (fabric/event_queue.hpp) and a Reconfigurator,
// and serves an immutable routing-table snapshot to any number of reader
// threads while rebuilds happen off to the side.  It runs in one of two
// writer modes (never both):
//
//  * Driven mode — the deterministic simulator path.  The engine thread
//    calls publishFromMasks() with FaultController's alive masks as the
//    authoritative rebuild input; the manager rebuilds (full or
//    incremental against the epoch being replaced) and ALWAYS publishes.
//    Identical Reconfigurator inputs to the pre-fabric engine, so every
//    swapped table is bit-for-bit the one the old in-place path produced;
//    the queue is drained only for coalescing statistics.
//
//  * Service mode — the fabric-controller shape.  startService() launches a
//    background rebuild thread that parks on the event queue, sleeps one
//    coalescing window after the first transition of a burst, drains
//    everything that accumulated, and folds the batch into desired alive
//    masks.  A DOWN and UP of the same link inside the window leave desired
//    == applied and the rebuild is skipped entirely (flap cancelled); N
//    failures fold into ONE rebuild over the union dirty set: service
//    rebuilds always try the incremental path, which falls back to a full
//    rebuild when it cannot apply.  Publishes go through the same epoch
//    swap the readers pin against.
//
// Reader threads call makeReader() once and acquire()/release pins around
// lookups; the read path is the lock-free protocol documented in
// fabric/epoch.hpp.  tryReclaim() runs on the writer after each publish
// (and opportunistically), so retired epochs disappear as soon as the last
// pinned reader moves on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "fabric/epoch.hpp"
#include "fabric/event_queue.hpp"
#include "fault/event_sink.hpp"
#include "fault/reconfigure.hpp"
#include "obs/flight_recorder.hpp"

namespace downup::verify {
class OracleGate;
}

namespace downup::fabric {

/// What one writer-side publish attempt did (scalars only; the table itself
/// is reachable through acquire()).
struct PublishResult {
  std::uint64_t epoch = 0;    // epoch now current (unchanged when skipped)
  bool published = false;     // false = coalescing cancelled the rebuild
  bool incremental = false;   // rebuild kept the previous turn rule
  std::uint32_t rebuiltDestinations = 0;
  std::uint64_t unreachablePairs = 0;
  unsigned components = 0;
  bool ok = false;            // deadlock-free + components connected
  std::uint64_t transitionsAbsorbed = 0;  // queue events folded into this call
};

class FabricManager final : public fault::FaultEventSink {
 public:
  struct Options {
    std::size_t maxReaders = 64;
    /// Optional pool for parallel table construction (outcomes identical
    /// at any width).  Must outlive the manager.
    util::ThreadPool* pool = nullptr;
    /// Service mode: how long the rebuild thread waits after a burst's
    /// first transition before draining and rebuilding.
    std::uint64_t coalesceWindowMicros = 200;
    /// Optional span recorder: every publish decision emits a `rebuild`
    /// root span with coalesce/dequeue/construction/publish children (see
    /// obs/span.hpp for the tree).  Must outlive the manager; nullptr (the
    /// default) costs one branch per stage.
    util::SpanRecorder* spans = nullptr;
    /// Optional service metrics (fabric/metrics.hpp): pin-acquire latency,
    /// snapshot lifetimes, retire-list depth, the coalescing ledger.  Must
    /// outlive the manager; attach before readers start.
    FabricMetrics* metrics = nullptr;
    /// Flight-recorder ring capacity (entries; rounded up to a power of
    /// two).  The recorder itself is always on — see flightRecorder().
    std::size_t flightCapacity = 1024;
    /// Optional independent deadlock oracle (verify/gate.hpp).  When set,
    /// the Reconfigurator audits every outcome and the manager
    /// audits every epoch at "epoch_publish" just before it goes live —
    /// from BOTH writer modes, since driven and service publishes share
    /// rebuildAndPublish().  A violation records a kOracleViolation
    /// anomaly and bumps oracleViolations() but never blocks the publish:
    /// enforcement stays with the caller so driven-mode determinism holds.
    /// Must outlive the manager.
    verify::OracleGate* oracle = nullptr;
  };

  /// `topo` and `baseline` (the healthy epoch-0 table) must outlive the
  /// manager.
  FabricManager(const topo::Topology& topo,
                const routing::RoutingTable& baseline, Options options);
  FabricManager(const topo::Topology& topo,
                const routing::RoutingTable& baseline)
      : FabricManager(topo, baseline, Options{}) {}
  ~FabricManager() override;

  FabricManager(const FabricManager&) = delete;
  FabricManager& operator=(const FabricManager&) = delete;

  // --- reader side ---
  Reader makeReader() { return publisher_.makeReader(); }
  PinnedSnapshot acquire(Reader& reader) { return publisher_.acquire(reader); }
  std::uint64_t currentEpoch() const noexcept {
    return publisher_.currentEpoch();
  }
  /// True while a rebuild is between drain and publish — readers can use
  /// this to classify lookups that overlap a reconfiguration.
  bool rebuildActive() const noexcept {
    return rebuildActive_.load(std::memory_order_acquire);
  }

  /// The always-on bounded ring of recent control-plane events (transition
  /// posted, window opened, rebuild started/finished, publish, reclaim,
  /// anomaly).  Dump it on demand or after an anomaly; recording from any
  /// thread is lock-free and allocation-free.
  obs::FlightRecorder& flightRecorder() noexcept { return flight_; }
  const obs::FlightRecorder& flightRecorder() const noexcept {
    return flight_;
  }

  /// The attached metrics, or nullptr when none were configured.
  FabricMetrics* metrics() const noexcept { return options_.metrics; }

  // --- fault ingestion (any thread; lock-free) ---
  void onLinkStateChanged(std::uint64_t cycle, topo::LinkId link,
                          bool alive) override;
  void onNodeStateChanged(std::uint64_t cycle, topo::NodeId node,
                          bool alive) override;

  // --- driven mode (single writer thread; no service running) ---

  /// Rebuilds from the given authoritative alive masks and publishes the
  /// next epoch unconditionally.  `incremental` rebuilds against the epoch
  /// being replaced when possible.  Drains the transition queue for
  /// coalescing stats only — the masks are the rebuild input.
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

  // --- service mode ---

  /// Launches the background rebuild thread.  No other writer may call
  /// publishFromMasks() while the service runs.
  void startService();
  /// Flushes any pending transitions (one final drain-and-rebuild if they
  /// change the desired masks) and joins the thread.  Idempotent.
  void stopService();
  bool serviceRunning() const noexcept { return serviceThread_.joinable(); }

  // --- statistics (atomics; readable from any thread) ---
  std::uint64_t rebuilds() const noexcept {
    return rebuilds_.load(std::memory_order_relaxed);
  }
  std::uint64_t rebuildsIncremental() const noexcept {
    return rebuildsIncremental_.load(std::memory_order_relaxed);
  }
  /// Service-mode drains whose folded batch left the applied masks
  /// unchanged (e.g. a DOWN+UP flap inside one window) — no rebuild ran.
  std::uint64_t rebuildsSkipped() const noexcept {
    return rebuildsSkipped_.load(std::memory_order_relaxed);
  }
  /// Total fault transitions absorbed by rebuild/skip decisions.  Minus
  /// one per rebuild, this is how many events coalescing saved.
  std::uint64_t transitionsAbsorbed() const noexcept {
    return transitionsAbsorbed_.load(std::memory_order_relaxed);
  }
  /// Largest transition batch folded into a single decision.
  std::uint64_t largestBatch() const noexcept {
    return largestBatch_.load(std::memory_order_relaxed);
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
  /// Folds `batch` into desiredLink_/desiredNode_; true when the desired
  /// masks now differ from the applied ones.
  bool foldBatch(std::span<const FaultTransition> batch);
  /// Rebuilds from desiredLink_/desiredNode_ and publishes (service mode).
  /// `batchSize` is the transition count folded into this decision
  /// (flight-recorder annotation only).
  PublishResult rebuildAndPublish(std::span<const std::uint8_t> linkAlive,
                                  std::span<const std::uint8_t> nodeAlive,
                                  bool incremental,
                                  std::uint64_t batchSize);
  void serviceLoop();

  const topo::Topology* topo_;
  fault::Reconfigurator reconfigurator_;
  EpochPublisher publisher_;
  FabricEventQueue queue_;
  Options options_;
  obs::FlightRecorder flight_;

  // Service-thread state (touched only by the service thread / driven
  // writer): desired = folded queue view, applied = masks of the current
  // epoch's rebuild input.
  std::vector<std::uint8_t> desiredLink_;
  std::vector<std::uint8_t> desiredNode_;
  std::vector<std::uint8_t> appliedLink_;
  std::vector<std::uint8_t> appliedNode_;
  std::vector<FaultTransition> batch_;  // drain scratch

  std::thread serviceThread_;
  std::atomic<bool> serviceStop_{false};
  std::atomic<bool> rebuildActive_{false};

  std::atomic<std::uint64_t> rebuilds_{0};
  std::atomic<std::uint64_t> rebuildsIncremental_{0};
  std::atomic<std::uint64_t> rebuildsSkipped_{0};
  std::atomic<std::uint64_t> transitionsAbsorbed_{0};
  std::atomic<std::uint64_t> largestBatch_{0};
  std::atomic<bool> allOk_{true};
  std::atomic<std::uint64_t> oracleViolations_{0};
};

}  // namespace downup::fabric
