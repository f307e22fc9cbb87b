// Engine core: construction, the cycle loop, traffic generation, the
// deadlock watchdog and stats assembly.  The per-phase machinery lives in
// allocation.cpp / arbitration.cpp / flow_control.cpp.
#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "obs/observer.hpp"

namespace downup::sim {

WormholeNetwork::WormholeNetwork(const RoutingTable& table,
                                 const TrafficPattern& pattern,
                                 double injectionRate, const SimConfig& config)
    : table_(&table),
      topo_(&table.topology()),
      pattern_(&pattern),
      config_(config),
      injectionRate_(injectionRate),
      rng_(config.seed),
      telemetry_(table.topology().channelCount(),
                 config.timelineBucketCycles) {
  config_.validate();
  if (injectionRate < 0.0 || injectionRate > 1.0) {
    throw std::invalid_argument(
        "WormholeNetwork: injection rate must be in [0, 1] flits/node/cycle");
  }
  genProbability_ =
      injectionRate / static_cast<double>(config_.packetLengthFlits);
  modulatedPattern_ = pattern.modulatesRate();

  vcCount_ = config_.vcCount;
  totalVcs_ = topo_->channelCount() * vcCount_;
  ejectBase_ = totalVcs_;
  const std::uint32_t ejectPorts =
      topo_->nodeCount() * config_.ejectionPortsPerNode;
  outputResources_ = topo_->channelCount() + ejectPorts;

  vcs_.assign(totalVcs_, Vc{});
  credit_.assign(totalVcs_, config_.bufferDepthFlits);
  sources_.assign(topo_->nodeCount(), Source{});
  ejectOwner_.assign(ejectPorts, kNoPacket);
  inputRoundRobin_.assign(topo_->channelCount(), 0);
  outputRoundRobin_.assign(outputResources_, 0);
  resourceRequests_.assign(outputResources_, {});
  movableVcs_.assign(topo_->channelCount(), 0);
  pendingHeaders_.resize(totalVcs_);
  routableSources_.resize(topo_->nodeCount());
  activeChannels_.resize(topo_->channelCount());
  busySources_.resize(topo_->nodeCount());
  // Misrouting draws RNG on every claim attempt, so blocked claimants must
  // keep re-attempting each cycle to preserve the draw sequence.
  parkingEnabled_ = config_.misrouteProbability <= 0.0;
  dirtyNodes_.resize(topo_->nodeCount());
  parkedHeaders_.assign(topo_->nodeCount(), {});
  parkedSource_.assign(topo_->nodeCount(), 0);
  if (config_.burstFactor > 1.0) {
    burstOn_.assign(topo_->nodeCount(), false);
  }
  if (config_.observer != nullptr) {
    config_.observer->attach(topo_->nodeCount(), topo_->channelCount());
    metrics_ = config_.observer->metrics();
    tracer_ = config_.observer->tracer();
    profiler_ = config_.observer->profiler();
    timeseries_ = config_.observer->timeseries();
    waitfor_ = config_.observer->waitFor();
    obsClaims_ =
        metrics_ != nullptr || tracer_ != nullptr || timeseries_ != nullptr;
    if (waitfor_ != nullptr && waitfor_->vcCount() != vcCount_) {
      throw std::invalid_argument(
          "WormholeNetwork: wait-for sampler sized for a different vcCount");
    }
  }
  if (config_.faultSchedule != nullptr) {
    faults_ = std::make_unique<fault::FaultController>(*topo_,
                                                       *config_.faultSchedule);
    // Driven mode: this thread is the fabric's single writer; the engine
    // decides when each epoch swaps (window end), so no service thread.
    fabric::FabricManager::Options fabricOptions;
    if (config_.observer != nullptr) {
      fabricOptions.spans = config_.observer->controlPlaneSpans();
    }
    fabricOptions.oracle = config_.oracleGate;
    fabric_ = std::make_unique<fabric::FabricManager>(*topo_, table,
                                                      fabricOptions);
    fabricReader_ = fabric_->makeReader();
    faults_->attachSink(fabric_.get());
  }
}

void WormholeNetwork::enqueuePacket(topo::NodeId src, topo::NodeId dst) {
  const auto pid = static_cast<PacketId>(packets_.size());
  packets_.push_back(Packet{src, dst, now_});
  if (tracer_ != nullptr && tracer_->sampled(pid)) {
    tracer_->onGenerated(pid, src, dst, now_);
  }
  if (timeseries_ != nullptr) timeseries_->recordGenerated();
  Source& source = sources_[src];
  // An empty queue means no output VC is claimed either, so the source
  // becomes allocatable exactly now.
  if (source.queue.empty()) routableSources_.insert(src);
  source.queue.push_back(pid);
  ++packetsGenerated_;
}

PacketId WormholeNetwork::injectPacket(topo::NodeId src, topo::NodeId dst) {
  if (src >= topo_->nodeCount() || dst >= topo_->nodeCount() || src == dst) {
    throw std::invalid_argument("injectPacket: bad endpoints");
  }
  enqueuePacket(src, dst);
  return static_cast<PacketId>(packets_.size() - 1);
}

std::uint64_t WormholeNetwork::flitsInFlight() const noexcept {
  std::uint64_t total = 0;
  for (const Vc& vc : vcs_) total += vc.buffered;
  for (const auto& slot : arrivals_) total += slot.size();
  return total;
}

void WormholeNetwork::step() {
  movedThisCycle_ = false;
  if (faults_ != nullptr) [[unlikely]] faultPhase();
  if (profiler_ == nullptr) [[likely]] {
    deliverArrivals();
    generateTraffic();
    allocateOutputs();
    transferFlits();
  } else {
    runPhasesProfiled();
  }

  // Deadlock watchdog: traffic is in flight but nothing has moved for a
  // long time.  With a correct (acyclic) turn rule this can never fire;
  // the failure-injection tests rely on it firing when rules are broken.
  // ownedVcs_ is maintained by the claim/release paths, replacing the
  // historical every-cycle scan over all VCs.
  if (movedThisCycle_ || ownedVcs_ == 0) {
    idleCycles_ = 0;
  } else if (faultsActive_ && faults_->windowOpen()) {
    // Worms legitimately stall while routing is being rebuilt; the swap at
    // the end of the window resolves them (drains or drops), so the
    // watchdog must not call a reconfiguration pause a deadlock.
    idleCycles_ = 0;
  } else if (++idleCycles_ >= config_.deadlockThresholdCycles) {
    deadlocked_ = true;
  }

  // Time-resolved observability, after the cycle's state has settled: the
  // wait-for snapshot sees post-transfer ownership, and the time-series
  // window closes on its last cycle.  Both are read-only on engine state.
  if (waitfor_ != nullptr && waitfor_->due(now_)) [[unlikely]] {
    sampleWaitFor();
  }
  if (timeseries_ != nullptr) [[unlikely]] timeseries_->tick(now_);

  if (now_ >= config_.warmupCycles) ++measuredCycles_;
  ++now_;
  ++allocOffset_;
}

void WormholeNetwork::sampleWaitFor() {
  waitfor_->beginSample(now_);
  const auto& perms = table_->permissions();
  const auto channelFullyOwned = [this](ChannelId c) {
    for (std::uint32_t v = 0; v < vcCount_; ++v) {
      if (vcs_[c * vcCount_ + v].owner == kNoPacket) return false;
    }
    return true;
  };
  for (std::uint32_t vcId = 0; vcId < totalVcs_; ++vcId) {
    const Vc& vc = vcs_[vcId];
    if (vc.owner == kNoPacket) continue;
    const ChannelId held = vcChannel(vcId);
    if (vc.out != kNoOut) {
      // Committed worm hop: flits in `held` drain only as the downstream
      // channel drains.  Ejection ends the chain (ports never block a
      // cycle: they free unconditionally as flits arrive).
      if (!isEject(vc.out)) waitfor_->addHoldEdge(held, vcChannel(vc.out));
      continue;
    }
    // Unrouted header: blocked (or within the 1-cycle routing delay) and
    // requesting its minimal candidates.  Under escape-adaptive routing a
    // non-escape packet additionally requests the any-turn adaptive class.
    const bool standing = waitfor_->noteBlockedHeader(vcId, vc.owner);
    const topo::NodeId node = topo_->channelDst(held);
    const topo::NodeId dst = packets_[vc.owner].dst;
    const auto fromDir =
        static_cast<std::uint32_t>(routing::index(perms.dir(held)));
    const auto request = [&](const routing::Candidates& candidates) {
      for (ChannelId c : candidates) {
        waitfor_->addRequestEdge(
            held, c, channelFullyOwned(c), standing, node, fromDir,
            static_cast<std::uint32_t>(routing::index(perms.dir(c))));
      }
    };
    request(table_->nextChannels(held, dst));
    if (config_.escapeAdaptiveRouting && !packets_[vc.owner].onEscape) {
      request(table_->nextChannelsAnyTurn(held, dst));
    }
  }
  waitfor_->endSample();
  // A hard deadlock witness (vcCount == 1: no virtual channel can break the
  // knot) is a control-plane anomaly — note it in the fabric's flight
  // recorder so a dump shows what the rebuild pipeline did around it.
  if (fabric_ != nullptr && waitfor_->cyclesAreHard() &&
      waitfor_->lastCycleSampleCycle() == now_ && waitfor_->everCycle())
      [[unlikely]] {
    fabric_->flightRecorder().record(
        obs::FabricEventKind::kAnomaly, now_,
        static_cast<std::uint64_t>(obs::AnomalyCode::kWaitForHardCycle),
        waitfor_->witnessCycle().size());
  }
}

void WormholeNetwork::runPhasesProfiled() {
  using Clock = std::chrono::steady_clock;
  const auto nanos = [](Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  const auto t0 = Clock::now();
  deliverArrivals();
  const auto t1 = Clock::now();
  generateTraffic();
  const auto t2 = Clock::now();
  allocateOutputs();
  const auto t3 = Clock::now();
  transferFlits();
  const auto t4 = Clock::now();
  profiler_->add(obs::PhaseProfiler::kFlowControl, nanos(t0, t1));
  profiler_->add(obs::PhaseProfiler::kTraffic, nanos(t1, t2));
  profiler_->add(obs::PhaseProfiler::kAllocation, nanos(t2, t3));
  profiler_->add(obs::PhaseProfiler::kArbitration, nanos(t3, t4));
  profiler_->endCycle();
}

void WormholeNetwork::generateTraffic() {
  if (genProbability_ <= 0.0 || generationStopped_) return;
  if (modulatedPattern_) [[unlikely]] {
    generateTrafficModulated();
    return;
  }
  const topo::NodeId nodeCount = topo_->nodeCount();
  if (config_.burstFactor <= 1.0) {
    // Smooth-traffic fast path: one Bernoulli draw per node per cycle is the
    // engine's largest fixed cost, so keep the loop body to the draw and a
    // rare tail.  The draw sequence itself is pinned — it interleaves with
    // routing's draws on the shared RNG stream.
    const double probability = genProbability_;
    const std::size_t queueCap = config_.sourceQueueCapPackets;
    for (topo::NodeId node = 0; node < nodeCount; ++node) {
      if (!rng_.chance(probability)) continue;
      if (sources_[node].queue.size() >= queueCap) continue;
      const topo::NodeId dst = pattern_->destination(node, rng_);
      assert(dst != node && "traffic pattern produced src == dst");
      // The fault guard sits after the draws so the healthy per-node RNG
      // sequence is undisturbed; it is never taken until a fault fires.
      if (faultsActive_ && !admitGeneratedPacket(node, dst)) continue;
      enqueuePacket(node, dst);
    }
    return;
  }
  for (topo::NodeId node = 0; node < nodeCount; ++node) {
    double probability = genProbability_;
    {
      // Two-state ON/OFF modulation with duty cycle 1/burstFactor keeps the
      // mean rate equal to the configured load.
      const double onMean = config_.burstOnMeanCycles;
      const double offMean = onMean * (config_.burstFactor - 1.0);
      if (burstOn_[node]) {
        if (rng_.chance(1.0 / onMean)) burstOn_[node] = false;
      } else {
        if (rng_.chance(1.0 / offMean)) burstOn_[node] = true;
      }
      if (!burstOn_[node]) continue;
      probability = std::min(1.0, genProbability_ * config_.burstFactor);
    }
    if (!rng_.chance(probability)) continue;
    if (sources_[node].queue.size() >= config_.sourceQueueCapPackets) continue;
    const topo::NodeId dst = pattern_->destination(node, rng_);
    assert(dst != node && "traffic pattern produced src == dst");
    if (faultsActive_ && !admitGeneratedPacket(node, dst)) continue;
    enqueuePacket(node, dst);
  }
}

void WormholeNetwork::generateTrafficModulated() {
  // The pattern's modulation state evolves on its OWN RNG; only the
  // Bernoulli draws and destination picks below touch the engine stream,
  // so the sequence is still fully determined by (seed, pattern seed).
  pattern_->advanceCycle(now_);
  const topo::NodeId nodeCount = topo_->nodeCount();
  const std::size_t queueCap = config_.sourceQueueCapPackets;
  for (topo::NodeId node = 0; node < nodeCount; ++node) {
    const double probability =
        std::min(1.0, genProbability_ * pattern_->rateMultiplier(node));
    if (!rng_.chance(probability)) continue;
    if (sources_[node].queue.size() >= queueCap) continue;
    const topo::NodeId dst = pattern_->destination(node, rng_);
    assert(dst != node && "traffic pattern produced src == dst");
    if (faultsActive_ && !admitGeneratedPacket(node, dst)) continue;
    enqueuePacket(node, dst);
  }
}

RunStats WormholeNetwork::run() {
  const std::uint64_t total =
      static_cast<std::uint64_t>(config_.warmupCycles) + config_.measureCycles;
  while (now_ < total && !deadlocked_) step();
  return collectStats();
}

bool WormholeNetwork::drainRemaining(std::uint64_t maxCycles) {
  // Injection-policy drops never entered packetsGenerated_, so the balance
  // below counts only the drop classes that discard *generated* packets.
  const auto accounted = [this] {
    return packetsEjectedTotal_ + droppedInFlight_ + droppedUnreachable_ ==
           packetsGenerated_;
  };
  generationStopped_ = true;
  const std::uint64_t deadline = now_ + maxCycles;
  while (now_ < deadline && !deadlocked_) {
    const bool windowOpen = faults_ != nullptr && faults_->windowOpen();
    if (!windowOpen && accounted()) return true;
    step();
  }
  return !deadlocked_ && accounted();
}

RunStats WormholeNetwork::collectStats() const {
  RunStats stats;
  stats.cycles = now_;
  stats.deadlocked = deadlocked_;
  stats.packetsGenerated = packetsGenerated_;
  stats.offeredLoad = injectionRate_;
  telemetry_.fill(stats, measuredCycles_, topo_->nodeCount());
  stats.packetsDroppedInFlight = droppedInFlight_;
  stats.packetsDroppedInjection = droppedInjection_;
  stats.packetsDroppedUnreachable = droppedUnreachable_;
  stats.reconfigurations = reconfigurations_;
  stats.reconfigCyclesTotal = reconfigCyclesTotal_;
  stats.reconfigIncrementalSwaps = reconfigIncrementalSwaps_;
  stats.reconfigDestinationsRebuilt = reconfigDestinationsRebuilt_;
  stats.unreachablePairsAfterReconfig = lastUnreachablePairs_;
  stats.reconfigRoutingVerified = reconfigVerified_;
  return stats;
}

}  // namespace downup::sim
