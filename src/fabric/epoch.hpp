// Epoch-swapped publication of immutable routing tables.
//
// A fabric controller must keep answering route lookups while a rebuild is
// in flight, so the routing table the readers see is never mutated: every
// reconfiguration produces a NEW RoutingTable, wrapped in an epoch-tagged
// TableSnapshot, and the swap is one atomic pointer store.  Readers pin the
// snapshot they are about to use through a per-reader announcement slot —
// one cache line holding the pinned snapshot pointer — so the read path is
// lock-free: an acquire-load of the current pointer, one RMW on the
// reader's own slot, and a validating re-load.  No mutex, no shared
// counter, no allocation.
//
// Reclamation is epoch-based with per-reader announcements (an inline
// single-slot hazard scheme; no hazard-pointer library): the writer retires
// the previous snapshot on publish and frees a retired snapshot only once
// no reader slot announces it.  The announce/validate handshake makes this
// safe without blocking readers:
//
//   reader                         writer
//   p = current        (seq_cst)
//   slot <- p          (seq_cst)   current <- next   (seq_cst)
//   if current == p: pinned        scan slots        (seq_cst)
//   else: retry (never deref p)    free retired snapshots no slot announces
//
// In the seq_cst total order, if the reader's validating load still saw p,
// the announcement precedes the writer's swap and therefore its scan — the
// writer keeps p alive.  If the writer swapped first, the validation fails
// and the reader retries against the new pointer without ever dereferencing
// the stale one.  A slot may transiently hold a stale pointer from a failed
// validation; the writer then errs on the side of keeping that address
// alive (delayed reclamation, never a use-after-free).  All ordering flows
// through atomic objects (no standalone fences), so ThreadSanitizer can
// check the protocol.
//
// Single-writer: publish() / tryReclaim() are called from one thread at a
// time (the thread calling FabricManager::publishFromMasks).  Readers are
// arbitrary threads, one Reader handle per thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "fabric/metrics.hpp"
#include "routing/routing_table.hpp"

namespace downup::fabric {

/// One published routing epoch: an immutable routing table tagged with a
/// monotonically increasing epoch number.  Epoch 0 borrows the caller's
/// baseline table; rebuilt epochs own their table and the TurnPermissions
/// it references (moved in together so the internal pointer stays valid).
class TableSnapshot {
 public:
  /// Borrowed baseline — `table` must outlive the snapshot.
  TableSnapshot(std::uint64_t epoch, const routing::RoutingTable* table)
      : epoch_(epoch), table_(table) {}

  /// Owned epoch from a rebuild.
  TableSnapshot(std::uint64_t epoch,
                std::unique_ptr<routing::TurnPermissions> perms,
                std::unique_ptr<routing::RoutingTable> table)
      : epoch_(epoch),
        table_(table.get()),
        ownedPerms_(std::move(perms)),
        ownedTable_(std::move(table)) {}

  std::uint64_t epoch() const noexcept { return epoch_; }
  const routing::RoutingTable& table() const noexcept { return *table_; }

  /// Steady-clock ns at publish (0 for the borrowed baseline).  Written by
  /// the publisher at publish time, read at reclaim for lifetime metrics.
  std::uint64_t publishNs() const noexcept { return publishNs_; }

 private:
  friend class EpochPublisher;
  std::uint64_t publishNs_ = 0;
  std::uint64_t epoch_;
  const routing::RoutingTable* table_;
  std::unique_ptr<routing::TurnPermissions> ownedPerms_;
  std::unique_ptr<routing::RoutingTable> ownedTable_;
};

/// Per-reader announcement slot.  Cache-line sized so concurrent readers
/// never false-share their pin stores.
struct alignas(64) ReaderSlot {
  std::atomic<const TableSnapshot*> pinned{nullptr};
};

class EpochPublisher;

/// A registered reader identity: one announcement slot inside one
/// publisher.  Cheap to copy; must be used from one thread at a time.
class Reader {
 public:
  Reader() = default;

 private:
  friend class EpochPublisher;
  Reader(EpochPublisher* publisher, ReaderSlot* slot)
      : publisher_(publisher), slot_(slot) {}

  EpochPublisher* publisher_ = nullptr;
  ReaderSlot* slot_ = nullptr;
};

/// RAII pin on one snapshot.  While live, the snapshot (and its table)
/// cannot be reclaimed.  A Reader holds at most one pin: acquiring again
/// through the same Reader supersedes the previous pin, so keep the newest
/// handle and drop the old one (the engine's swap path does exactly this).
class PinnedSnapshot {
 public:
  PinnedSnapshot() = default;
  PinnedSnapshot(PinnedSnapshot&& other) noexcept
      : slot_(other.slot_), snapshot_(other.snapshot_) {
    other.slot_ = nullptr;
    other.snapshot_ = nullptr;
  }
  PinnedSnapshot& operator=(PinnedSnapshot&& other) noexcept {
    if (this != &other) {
      release();
      slot_ = other.slot_;
      snapshot_ = other.snapshot_;
      other.slot_ = nullptr;
      other.snapshot_ = nullptr;
    }
    return *this;
  }
  PinnedSnapshot(const PinnedSnapshot&) = delete;
  PinnedSnapshot& operator=(const PinnedSnapshot&) = delete;
  ~PinnedSnapshot() { release(); }

  bool valid() const noexcept { return snapshot_ != nullptr; }
  std::uint64_t epoch() const noexcept { return snapshot_->epoch(); }
  const routing::RoutingTable& table() const noexcept {
    return snapshot_->table();
  }

  /// Unpins early (idempotent).  Only clears the slot when it still
  /// announces this snapshot — a newer pin through the same Reader is left
  /// untouched.
  void release() noexcept {
    if (slot_ == nullptr) return;
    if (slot_->pinned.load(std::memory_order_relaxed) == snapshot_) {
      slot_->pinned.store(nullptr, std::memory_order_release);
    }
    slot_ = nullptr;
    snapshot_ = nullptr;
  }

 private:
  friend class EpochPublisher;
  PinnedSnapshot(ReaderSlot* slot, const TableSnapshot* snapshot)
      : slot_(slot), snapshot_(snapshot) {}

  ReaderSlot* slot_ = nullptr;
  const TableSnapshot* snapshot_ = nullptr;
};

/// Double-buffered-and-beyond snapshot store: the current epoch, the
/// retired-but-possibly-pinned predecessors, and the reader registry.
class EpochPublisher {
 public:
  /// `maxReaders` bounds the registry (slot addresses must stay stable, so
  /// the slot array is allocated once).  `baseline` becomes epoch 0 and is
  /// borrowed — it must outlive the publisher.
  EpochPublisher(const routing::RoutingTable& baseline,
                 std::size_t maxReaders = 64);
  ~EpochPublisher();

  EpochPublisher(const EpochPublisher&) = delete;
  EpochPublisher& operator=(const EpochPublisher&) = delete;

  /// Attaches service metrics (pin-acquire latency, snapshot lifetime,
  /// retire-list depth, reader-slot occupancy).  nullptr detaches — the
  /// default, and the read path then pays exactly one branch.  Must be set
  /// before readers start acquiring; the pointer is shared unsynchronised.
  void setMetrics(FabricMetrics* metrics) noexcept { metrics_ = metrics; }

  /// Registers a reader slot (mutex-guarded; NOT the read path).  Throws
  /// std::length_error past maxReaders.
  Reader makeReader();

  /// Lock-free pin of the current snapshot (see the protocol note above).
  PinnedSnapshot acquire(Reader& reader);

  /// Current epoch number (readers may race this; informational).
  std::uint64_t currentEpoch() const noexcept {
    return current_.load(std::memory_order_acquire)->epoch();
  }

  // --- writer side (single caller at a time) ---

  /// Publishes a rebuilt table as the next epoch with one atomic pointer
  /// swap and retires the predecessor.  Returns the new epoch number.
  std::uint64_t publish(std::unique_ptr<routing::TurnPermissions> perms,
                        std::unique_ptr<routing::RoutingTable> table);

  /// Writer-side peek at the current snapshot (for incremental rebuilds
  /// against the epoch being replaced).
  const TableSnapshot& currentForWriter() const noexcept {
    return *current_.load(std::memory_order_acquire);
  }

  /// Frees every retired snapshot no reader slot announces; returns how
  /// many were reclaimed.  Non-blocking — pinned epochs simply stay on the
  /// retired list until a later call finds them released.
  std::size_t tryReclaim();

  /// Retired-but-not-yet-reclaimed snapshots (epoch-lifecycle tests).
  std::size_t retiredCount() const noexcept { return retired_.size(); }
  /// Total snapshots reclaimed over the publisher's lifetime.
  std::uint64_t reclaimedCount() const noexcept { return reclaimed_; }

 private:
  std::atomic<const TableSnapshot*> current_;
  std::unique_ptr<TableSnapshot> currentOwned_;
  std::vector<std::unique_ptr<TableSnapshot>> retired_;
  std::uint64_t reclaimed_ = 0;

  std::unique_ptr<ReaderSlot[]> slots_;
  std::size_t maxReaders_;
  std::size_t readerCount_ = 0;  // guarded by registerMutex_
  std::mutex registerMutex_;
  FabricMetrics* metrics_ = nullptr;
};

}  // namespace downup::fabric
