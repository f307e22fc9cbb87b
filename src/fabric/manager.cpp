#include "fabric/manager.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "verify/gate.hpp"

namespace downup::fabric {

FabricManager::FabricManager(const topo::Topology& topo,
                             const routing::RoutingTable& baseline,
                             Options options)
    : topo_(&topo),
      reconfigurator_(topo, options.pool),
      publisher_(baseline, options.maxReaders),
      options_(options),
      flight_(options.flightCapacity),
      desiredLink_(topo.linkCount(), 1),
      desiredNode_(topo.nodeCount(), 1),
      appliedLink_(topo.linkCount(), 1),
      appliedNode_(topo.nodeCount(), 1) {
  reconfigurator_.setSpans(options_.spans);
  reconfigurator_.setOracle(options_.oracle);
  publisher_.setMetrics(options_.metrics);
}

FabricManager::~FabricManager() { stopService(); }

void FabricManager::onLinkStateChanged(std::uint64_t cycle, topo::LinkId link,
                                       bool alive) {
  queue_.push({cycle, FaultTransition::Entity::kLink, link, alive});
  flight_.record(obs::FabricEventKind::kTransitionPosted, cycle, /*entity=*/0,
                 link, alive);
  if (options_.metrics != nullptr) {
    options_.metrics->transitionsSeen.fetch_add(1, std::memory_order_relaxed);
  }
}

void FabricManager::onNodeStateChanged(std::uint64_t cycle, topo::NodeId node,
                                       bool alive) {
  queue_.push({cycle, FaultTransition::Entity::kNode, node, alive});
  flight_.record(obs::FabricEventKind::kTransitionPosted, cycle, /*entity=*/1,
                 node, alive);
  if (options_.metrics != nullptr) {
    options_.metrics->transitionsSeen.fetch_add(1, std::memory_order_relaxed);
  }
}

bool FabricManager::foldBatch(std::span<const FaultTransition> batch) {
  for (const FaultTransition& t : batch) {
    const std::uint8_t alive = t.alive ? 1 : 0;
    if (t.entity == FaultTransition::Entity::kLink) {
      desiredLink_[t.id] = alive;
    } else {
      desiredNode_[t.id] = alive;
    }
  }
  return desiredLink_ != appliedLink_ || desiredNode_ != appliedNode_;
}

PublishResult FabricManager::rebuildAndPublish(
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive, bool incremental,
    std::uint64_t batchSize) {
  FabricMetrics* const metrics = options_.metrics;
  const auto startTime = std::chrono::steady_clock::now();
  flight_.record(obs::FabricEventKind::kRebuildStarted, 0,
                 incremental ? 1 : 0, batchSize);

  rebuildActive_.store(true, std::memory_order_release);
  fault::ReconfigOutcome outcome =
      incremental
          ? reconfigurator_.rebuildIncremental(
                publisher_.currentForWriter().table(), linkAlive, nodeAlive)
          : reconfigurator_.rebuild(linkAlive, nodeAlive);

  PublishResult result;
  result.published = true;
  result.incremental = outcome.incremental;
  result.rebuiltDestinations = outcome.rebuiltDestinations;
  result.unreachablePairs = outcome.unreachablePairs;
  result.components = outcome.components;
  result.ok = outcome.ok();
  // Independent gate on the epoch about to go live.  Shared by driven and
  // service publishes; observational only (the publish proceeds so the
  // engine's deterministic swap protocol is unaffected).
  if (options_.oracle != nullptr) {
    std::vector<std::uint8_t> channelAlive(topo_->channelCount(), 0);
    for (topo::LinkId l = 0; l < topo_->linkCount(); ++l) {
      const auto [a, b] = topo_->linkEnds(l);
      const std::uint8_t alive = linkAlive[l] && nodeAlive[a] && nodeAlive[b];
      channelAlive[2 * l] = alive;
      channelAlive[2 * l + 1] = alive;
    }
    verify::OracleInput input;
    input.perms = outcome.perms.get();
    input.table = outcome.table.get();
    input.channelAlive = channelAlive;
    const std::uint64_t nextEpoch = publisher_.currentEpoch() + 1;
    if (!options_.oracle->audit(input,
                                {.point = "epoch_publish", .epoch = nextEpoch})) {
      oracleViolations_.fetch_add(1, std::memory_order_relaxed);
      flight_.record(
          obs::FabricEventKind::kAnomaly, 0,
          static_cast<std::uint64_t>(obs::AnomalyCode::kOracleViolation),
          nextEpoch);
    }
  }
  {
    util::ScopedSpan publishSpan(options_.spans, "publish");
    result.epoch =
        publisher_.publish(std::move(outcome.perms), std::move(outcome.table));
    rebuildActive_.store(false, std::memory_order_release);

    std::copy(linkAlive.begin(), linkAlive.end(), appliedLink_.begin());
    std::copy(nodeAlive.begin(), nodeAlive.end(), appliedNode_.begin());

    flight_.record(obs::FabricEventKind::kRebuildFinished, 0, result.epoch,
                   result.rebuiltDestinations, result.ok);
    flight_.record(obs::FabricEventKind::kPublish, 0, result.epoch,
                   publisher_.retiredCount());
    const std::size_t freed = publisher_.tryReclaim();
    flight_.record(obs::FabricEventKind::kReclaim, 0, freed,
                   publisher_.retiredCount());
    publishSpan.arg("epoch", static_cast<double>(result.epoch));
    publishSpan.arg("reclaimed", static_cast<double>(freed));
  }

  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  if (outcome.incremental) {
    rebuildsIncremental_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!result.ok) {
    allOk_.store(false, std::memory_order_relaxed);
    flight_.record(obs::FabricEventKind::kAnomaly, 0,
                   static_cast<std::uint64_t>(
                       obs::AnomalyCode::kUnverifiedRouting));
  }
  if (metrics != nullptr) {
    metrics->rebuildsRun.fetch_add(1, std::memory_order_relaxed);
    if (outcome.incremental) {
      metrics->rebuildsIncremental.fetch_add(1, std::memory_order_relaxed);
    }
    metrics->dirtyDestinationsTotal.fetch_add(result.rebuiltDestinations,
                                              std::memory_order_relaxed);
    atomicMax(metrics->dirtyDestinationsMax, result.rebuiltDestinations);
    metrics->rebuildNs.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - startTime)
            .count()));
  }
  return result;
}

PublishResult FabricManager::publishFromMasks(
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive, bool incremental) {
  // Drain for coalescing stats and to keep desired masks tracking the
  // controller's view; the passed masks stay the authoritative input, and
  // driven mode always publishes — the engine decides when a swap happens.
  util::ScopedSpan rebuildSpan(options_.spans, "rebuild");
  util::ScopedSpan dequeueSpan(options_.spans, "event_dequeue");
  batch_.clear();
  const std::size_t drained = queue_.drain(batch_);
  foldBatch(batch_);
  dequeueSpan.arg("drained", static_cast<double>(drained));
  dequeueSpan.close();
  transitionsAbsorbed_.fetch_add(drained, std::memory_order_relaxed);
  std::uint64_t prevMax = largestBatch_.load(std::memory_order_relaxed);
  while (drained > prevMax &&
         !largestBatch_.compare_exchange_weak(prevMax, drained,
                                              std::memory_order_relaxed)) {
  }

  PublishResult result =
      rebuildAndPublish(linkAlive, nodeAlive, incremental, drained);
  result.transitionsAbsorbed = drained;
  // The engine's masks are ground truth; fold them into desired so a later
  // service start would not see phantom divergence.
  std::copy(linkAlive.begin(), linkAlive.end(), desiredLink_.begin());
  std::copy(nodeAlive.begin(), nodeAlive.end(), desiredNode_.begin());
  return result;
}

double FabricManager::incrementalDirtyFraction(
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive) const {
  return reconfigurator_.incrementalDirtyFraction(
      publisher_.currentForWriter().table(), linkAlive, nodeAlive);
}

void FabricManager::startService() {
  if (serviceThread_.joinable()) return;
  serviceStop_.store(false, std::memory_order_release);
  serviceThread_ = std::thread([this] { serviceLoop(); });
}

void FabricManager::stopService() {
  if (!serviceThread_.joinable()) return;
  serviceStop_.store(true, std::memory_order_release);
  queue_.notify();
  serviceThread_.join();
}

void FabricManager::serviceLoop() {
  util::SpanRecorder* const spans = options_.spans;
  FabricMetrics* const metrics = options_.metrics;
  for (;;) {
    const bool stopping = serviceStop_.load(std::memory_order_acquire);
    if (queue_.empty()) {
      if (stopping) return;
      queue_.waitNonEmpty(serviceStop_, /*timeoutMicros=*/50'000);
      continue;
    }
    // First transition of a burst observed: one `rebuild` root span covers
    // the whole decision — coalescing wait, drain, construction, publish.
    util::ScopedSpan rebuildSpan(spans, "rebuild");
    flight_.record(obs::FabricEventKind::kWindowOpened, 0,
                   queue_.pushedCount() -
                       transitionsAbsorbed_.load(std::memory_order_relaxed));
    if (metrics != nullptr) {
      metrics->windowsOpened.fetch_add(1, std::memory_order_relaxed);
    }
    if (!stopping && options_.coalesceWindowMicros > 0) {
      // Sleep out the coalescing window so the rest of the burst (including
      // a matching UP) lands in this batch.
      util::ScopedSpan waitSpan(spans, "coalesce_wait");
      const std::uint64_t pushedBefore = queue_.pushedCount();
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.coalesceWindowMicros));
      const std::uint64_t arrived = queue_.pushedCount() - pushedBefore;
      waitSpan.arg("arrived", static_cast<double>(arrived));
      if (arrived > 0) {
        flight_.record(obs::FabricEventKind::kWindowExtended, 0, arrived);
        if (metrics != nullptr) {
          metrics->windowExtensions.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    util::ScopedSpan dequeueSpan(spans, "event_dequeue");
    batch_.clear();
    const std::size_t drained = queue_.drain(batch_);
    const bool changed = drained > 0 && foldBatch(batch_);
    dequeueSpan.arg("drained", static_cast<double>(drained));
    dequeueSpan.close();
    if (drained > 0) {
      transitionsAbsorbed_.fetch_add(drained, std::memory_order_relaxed);
      std::uint64_t prevMax = largestBatch_.load(std::memory_order_relaxed);
      while (drained > prevMax &&
             !largestBatch_.compare_exchange_weak(prevMax, drained,
                                                  std::memory_order_relaxed)) {
      }
      if (changed) {
        rebuildAndPublish(desiredLink_, desiredNode_, /*incremental=*/true,
                          drained);
      } else {
        // The burst cancelled out (flap): desired == applied, nothing to do.
        rebuildsSkipped_.fetch_add(1, std::memory_order_relaxed);
        flight_.record(obs::FabricEventKind::kRebuildSkipped, 0, drained);
        if (metrics != nullptr) {
          metrics->flapsCancelled.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
}

}  // namespace downup::fabric
