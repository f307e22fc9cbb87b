// Epoch lifecycle: lock-free pins across swaps, retirement only after the
// last pin releases, and fingerprint equality between every published table
// and a freshly built reference.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "fabric/epoch.hpp"
#include "fault/reconfigure.hpp"
#include "topology/generate.hpp"
#include "util/rng.hpp"

namespace downup::fabric {
namespace {

topo::Topology makeSan(topo::NodeId switches, std::uint64_t seed) {
  util::Rng rng(seed);
  return topo::randomIrregular(switches, {.maxPorts = 4}, rng);
}

std::vector<std::uint8_t> allAlive(std::size_t count) {
  return std::vector<std::uint8_t>(count, 1);
}

TEST(EpochPublisherTest, BaselineIsEpochZero) {
  const topo::Topology topo = makeSan(16, 7);
  const fault::Reconfigurator reconf(topo);
  fault::ReconfigOutcome healthy = reconf.rebuild(
      allAlive(topo.linkCount()), allAlive(topo.nodeCount()));
  ASSERT_TRUE(healthy.ok());
  const std::uint64_t baseFp = healthy.table->fingerprint();

  EpochPublisher pub(*healthy.table);
  Reader reader = pub.makeReader();
  PinnedSnapshot pin = pub.acquire(reader);
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.epoch(), 0u);
  EXPECT_EQ(pub.currentEpoch(), 0u);
  EXPECT_EQ(pin.table().fingerprint(), baseFp);
  EXPECT_EQ(pub.retiredCount(), 0u);
}

TEST(EpochPublisherTest, RetirementWaitsForPinnedReader) {
  const topo::Topology topo = makeSan(16, 7);
  const fault::Reconfigurator reconf(topo);
  fault::ReconfigOutcome healthy = reconf.rebuild(
      allAlive(topo.linkCount()), allAlive(topo.nodeCount()));
  std::vector<std::uint8_t> degradedLinks = allAlive(topo.linkCount());
  degradedLinks[0] = 0;
  fault::ReconfigOutcome degraded =
      reconf.rebuild(degradedLinks, allAlive(topo.nodeCount()));
  ASSERT_TRUE(healthy.ok() && degraded.ok());
  const std::uint64_t degradedFp = degraded.table->fingerprint();

  EpochPublisher pub(*healthy.table);
  Reader reader = pub.makeReader();
  PinnedSnapshot oldPin = pub.acquire(reader);
  const std::uint64_t oldFp = oldPin.table().fingerprint();

  EXPECT_EQ(pub.publish(std::move(degraded.perms), std::move(degraded.table)),
            1u);
  // The old epoch is retired but still pinned: it must survive reclamation
  // and stay readable through the existing pin.
  EXPECT_EQ(pub.retiredCount(), 1u);
  EXPECT_EQ(pub.tryReclaim(), 0u);
  EXPECT_EQ(pub.retiredCount(), 1u);
  EXPECT_EQ(oldPin.epoch(), 0u);
  EXPECT_EQ(oldPin.table().fingerprint(), oldFp);
  // A fresh acquire through the same reader sees the new epoch.
  PinnedSnapshot newPin = pub.acquire(reader);
  EXPECT_EQ(newPin.epoch(), 1u);
  EXPECT_EQ(newPin.table().fingerprint(), degradedFp);
  // The re-acquire superseded the slot's announcement, so the old epoch is
  // now reclaimable even though oldPin's handle still exists (it must not
  // be dereferenced any more — drop it first in real code).
  oldPin.release();
  EXPECT_EQ(pub.tryReclaim(), 1u);
  EXPECT_EQ(pub.retiredCount(), 0u);
  EXPECT_EQ(pub.reclaimedCount(), 1u);
}

TEST(EpochPublisherTest, ReleaseDoesNotClobberNewerPinOnSameReader) {
  const topo::Topology topo = makeSan(16, 7);
  const fault::Reconfigurator reconf(topo);
  fault::ReconfigOutcome healthy = reconf.rebuild(
      allAlive(topo.linkCount()), allAlive(topo.nodeCount()));
  std::vector<std::uint8_t> degradedLinks = allAlive(topo.linkCount());
  degradedLinks[0] = 0;
  fault::ReconfigOutcome degraded =
      reconf.rebuild(degradedLinks, allAlive(topo.nodeCount()));

  EpochPublisher pub(*healthy.table);
  Reader reader = pub.makeReader();
  PinnedSnapshot oldPin = pub.acquire(reader);
  pub.publish(std::move(degraded.perms), std::move(degraded.table));
  PinnedSnapshot newPin = pub.acquire(reader);
  // Destroying the superseded handle must not clear the slot's newer
  // announcement: epoch 1 stays pinned.
  oldPin.release();
  pub.publish(std::move(healthy.perms), std::move(healthy.table));
  pub.tryReclaim();
  EXPECT_EQ(newPin.epoch(), 1u);
  EXPECT_EQ(pub.retiredCount(), 1u);  // epoch 1 still pinned by newPin
}

TEST(EpochPublisherTest, ReaderRegistryIsBounded) {
  const topo::Topology topo = makeSan(8, 3);
  const fault::Reconfigurator reconf(topo);
  fault::ReconfigOutcome healthy = reconf.rebuild(
      allAlive(topo.linkCount()), allAlive(topo.nodeCount()));
  EpochPublisher pub(*healthy.table, /*maxReaders=*/2);
  Reader a = pub.makeReader();
  Reader b = pub.makeReader();
  (void)a;
  (void)b;
  EXPECT_THROW(pub.makeReader(), std::length_error);
}

// Readers pin snapshots across concurrent swaps: every pinned table must be
// internally consistent (its fingerprint matches the reference build for
// its epoch's parity — a torn or reclaimed-under-foot read cannot), and
// everything retires once the readers stop.
TEST(EpochPublisherTest, ConcurrentReadersSurviveSwaps) {
  const topo::Topology topo = makeSan(24, 11);
  const fault::Reconfigurator reconf(topo);
  const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
  const std::vector<std::uint8_t> healthyLinks = allAlive(topo.linkCount());
  std::vector<std::uint8_t> degradedLinks = healthyLinks;
  degradedLinks[1] = 0;

  fault::ReconfigOutcome baseline = reconf.rebuild(healthyLinks, nodesUp);
  ASSERT_TRUE(baseline.ok());
  const std::uint64_t healthyFp = baseline.table->fingerprint();
  const std::uint64_t degradedFp =
      reconf.rebuild(degradedLinks, nodesUp).table->fingerprint();
  ASSERT_NE(healthyFp, degradedFp);

  EpochPublisher pub(*baseline.table);
  constexpr int kReaders = 4;
  constexpr std::uint64_t kSwaps = 60;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> readersPinned{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    Reader reader = pub.makeReader();
    readers.emplace_back([&, reader]() mutable {
      bool first = true;
      while (!done.load(std::memory_order_acquire)) {
        PinnedSnapshot pin = pub.acquire(reader);
        // Odd epochs published the degraded table, even ones the healthy
        // table (epoch 0 is the healthy baseline).
        const std::uint64_t expected =
            (pin.epoch() % 2 == 1) ? degradedFp : healthyFp;
        if (pin.table().fingerprint() != expected) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        if (first) {
          first = false;
          readersPinned.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  // Swap only once every reader has pinned: on a loaded host the 60
  // rebuilds can otherwise finish before any reader thread runs.
  while (readersPinned.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  for (std::uint64_t i = 1; i <= kSwaps; ++i) {
    fault::ReconfigOutcome next =
        reconf.rebuild((i % 2 == 1) ? degradedLinks : healthyLinks, nodesUp);
    ASSERT_EQ(pub.publish(std::move(next.perms), std::move(next.table)), i);
    pub.tryReclaim();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  // All pins are gone (thread-exit released them); retirement drains fully.
  pub.tryReclaim();
  EXPECT_EQ(pub.retiredCount(), 0u);
  EXPECT_EQ(pub.reclaimedCount(), kSwaps);
}

}  // namespace
}  // namespace downup::fabric
