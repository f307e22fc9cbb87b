#include "fabric/manager.hpp"

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
      flight_(options.flightCapacity) {
  reconfigurator_.setSpans(options_.spans);
  publisher_.setMetrics(options_.metrics);
}

PublishResult FabricManager::publishFromMasks(
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive, bool incremental) {
  util::ScopedSpan rebuildSpan(options_.spans, "rebuild");
  FabricMetrics* const metrics = options_.metrics;
  const auto startTime = std::chrono::steady_clock::now();
  flight_.record(obs::FabricEventKind::kRebuildStarted, 0,
                 incremental ? 1 : 0);

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
  // Independent gate on the epoch about to go live; observational only (the
  // publish proceeds so the engine's deterministic swap protocol is
  // unaffected).
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

double FabricManager::incrementalDirtyFraction(
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive) const {
  return reconfigurator_.incrementalDirtyFraction(
      publisher_.currentForWriter().table(), linkAlive, nodeAlive);
}

}  // namespace downup::fabric
