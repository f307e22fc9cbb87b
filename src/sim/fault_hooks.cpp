// Fault injection and online reconfiguration hooks for the wormhole engine.
//
// Protocol (drain-then-swap): when a fault event fires, the worms occupying
// the failed resources are dropped immediately and a reconfiguration window
// of config_.reconfigLatencyCycles opens.  While the window is open,
// injection is frozen (parked or dropped per InjectionPolicy), in-flight
// headers keep claiming under the stale table with dead channels filtered
// out, and the deadlock watchdog is suppressed.  When the window elapses,
// every worm still holding an unrouted frontier is flushed, routing is
// rebuilt on the degraded topology (fault/reconfigure.hpp — per-component
// coordinated trees, DOWN/UP turn rule, repair + release passes, verified
// deadlock-free) and the table is hot-swapped through the fabric manager's
// epoch publish (fabric/manager.hpp): the engine pins the new
// epoch and the superseded table is reclaimed once unpinned.
//
// Why this cannot deadlock or hang: after the swap the network holds only
// (a) fully-routed worms, whose dependency chains end at ejection ports and
// drain without further allocation, and (b) packets routed entirely under
// the new, verified-acyclic rule.  No unrouted old-epoch claimant survives,
// so no dependency can mix epochs and close a cycle.  Packets whose
// destination died or became unreachable are discarded lazily at the source
// with attribution instead of waiting forever.
//
// None of these paths is reachable until a fault event actually fires
// (faultsActive_), so a run with an attached but empty schedule is
// bit-for-bit identical to a run without one.
#include "sim/network.hpp"

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/waitfor.hpp"
#include "verify/gate.hpp"

namespace downup::sim {

void WormholeNetwork::faultPhase() {
  if (now_ == faults_->nextEventCycle()) {
    const fault::FaultController::Applied applied =
        faults_->applyEventsAt(now_);
    for (topo::NodeId node : applied.newlyDeadNodes) quarantineNode(node);
    // Worms occupying a newly dead link (either direction, any VC) are
    // truncated mid-body; wormhole switches cannot splice a worm, so the
    // whole packet is dropped.  Incident links of dead switches are
    // included in newlyDeadLinks by the controller.
    for (topo::LinkId link : applied.newlyDeadLinks) {
      for (const ChannelId c : {2 * link, 2 * link + 1}) {
        for (std::uint32_t v = 0; v < vcCount_; ++v) {
          const PacketId pid = vcs_[c * vcCount_ + v].owner;
          if (pid != kNoPacket) dropPacket(pid, topo_->channelSrc(c));
        }
      }
    }
    if (applied.topologyChanged) {
      faultsActive_ = true;
      faults_->openWindowUntil(now_ + reconfigWindowLength());
      if (timeseries_ != nullptr) timeseries_->onFaultApplied(now_);
      // First oracle look at the quarantine state: survivors' occupancy
      // plus the stale rule restricted to what is still alive.
      if (config_.oracleGate != nullptr) [[unlikely]] {
        auditRoutingState("mid_reconfig_quarantine");
      }
    }
  }
  if (faults_->windowOpen()) {
    ++reconfigCyclesTotal_;
    if (timeseries_ != nullptr) timeseries_->recordDegradedCycle();
    if (now_ >= faults_->windowEnd()) completeReconfiguration();
  }
}

std::uint64_t WormholeNetwork::reconfigWindowLength() const {
  if (!config_.reconfigIncremental) return config_.reconfigLatencyCycles;
  // The window models route recomputation + distribution time, so an
  // incremental epoch that redoes a fraction of the per-destination work
  // finishes proportionally sooner (never below one cycle).  The fraction
  // is computed against the CURRENT epoch — exactly the one the swap at
  // window end will be built from.
  const double fraction = fabric_->incrementalDirtyFraction(
      faults_->linkAliveMask(), faults_->nodeAliveMask());
  const double cycles = static_cast<double>(config_.reconfigLatencyCycles);
  const auto scaled = static_cast<std::uint64_t>(cycles * fraction + 0.5);
  return std::max<std::uint64_t>(1, scaled);
}

void WormholeNetwork::dropPacket(PacketId pid, topo::NodeId atNode) {
  Packet& packet = packets_[pid];
  if (packet.dropped) return;
  packet.dropped = true;
  ++droppedInFlight_;

  // Purge pipeline flits heading into the worm's VCs before ownership is
  // cleared (deliverArrivals asserts its targets are owned).
  for (auto& slot : arrivals_) {
    std::erase_if(slot, [&](std::uint32_t vcId) {
      return vcs_[vcId].owner == pid;
    });
  }
  for (std::uint32_t vcId = 0; vcId < totalVcs_; ++vcId) {
    Vc& vc = vcs_[vcId];
    if (vc.owner != pid) continue;
    if (vc.out == kNoOut) {
      // Unrouted frontier: the header is pending, parked at this VC's sink
      // node, or still in flight towards the VC (then it is in neither).
      if (pendingHeaders_.contains(vcId)) {
        pendingHeaders_.erase(vcId);
      } else {
        std::erase(parkedHeaders_[topo_->channelDst(vcChannel(vcId))], vcId);
      }
    } else if (vc.buffered > 0) {
      unmarkMovable(vcId);
    }
    // The worm's flits vanish; the upstream view of this buffer is full
    // credit again (in-pipeline flits were purged above).
    credit_[vcId] = config_.bufferDepthFlits;
    vc.owner = kNoPacket;
    vc.out = kNoOut;
    vc.buffered = 0;
    vc.entered = 0;
    vc.sent = 0;
    --ownedVcs_;
    if (parkingEnabled_) {
      dirtyNodes_.insert(topo_->channelSrc(vcChannel(vcId)));
    }
  }
  for (std::uint32_t e = 0; e < ejectOwner_.size(); ++e) {
    if (ejectOwner_[e] != pid) continue;
    ejectOwner_[e] = kNoPacket;
    if (parkingEnabled_) {
      dirtyNodes_.insert(e / config_.ejectionPortsPerNode);
    }
  }
  Source& source = sources_[packet.src];
  if (!source.queue.empty() && source.queue.front() == pid) {
    if (source.out != kNoOut) {
      source.out = kNoOut;
      busySources_.erase(packet.src);
    }
    source.sent = 0;
    source.queue.pop_front();
    parkedSource_[packet.src] = 0;
    routableSources_.erase(packet.src);
    if (!source.queue.empty() && faults_->nodeAlive(packet.src)) {
      routableSources_.insert(packet.src);
    }
  }
  if (metrics_ != nullptr) metrics_->recordDrop(atNode);
  if (timeseries_ != nullptr) timeseries_->recordDrop();
  if (tracer_ != nullptr && tracer_->sampled(pid)) {
    tracer_->record(obs::TraceEventKind::kDropped, pid, now_, atNode,
                    obs::PacketTracer::kNoChannel);
  }
}

void WormholeNetwork::quarantineNode(topo::NodeId node) {
  // Packets mid-ejection at the dead switch.
  const std::uint32_t base = node * config_.ejectionPortsPerNode;
  for (std::uint32_t p = 0; p < config_.ejectionPortsPerNode; ++p) {
    const PacketId pid = ejectOwner_[base + p];
    if (pid != kNoPacket) dropPacket(pid, node);
  }
  // The switch's injection queue dies with it.  The front packet may
  // already own VCs downstream (dropPacket pops it); the rest own nothing.
  Source& source = sources_[node];
  while (!source.queue.empty()) {
    const PacketId pid = source.queue.front();
    if (source.out != kNoOut) {
      dropPacket(pid, node);
      continue;
    }
    packets_[pid].dropped = true;
    ++droppedInFlight_;
    if (metrics_ != nullptr) metrics_->recordDrop(node);
    if (timeseries_ != nullptr) timeseries_->recordDrop();
    if (tracer_ != nullptr && tracer_->sampled(pid)) {
      tracer_->record(obs::TraceEventKind::kDropped, pid, now_, node,
                      obs::PacketTracer::kNoChannel);
    }
    source.queue.pop_front();
  }
  routableSources_.erase(node);
  parkedSource_[node] = 0;
  // Worms occupying the switch's channels are handled by the link
  // quarantine: the controller reports every incident link as newly dead.
}

void WormholeNetwork::completeReconfiguration() {
  // Flush every worm still holding an unrouted frontier.  What survives is
  // fully routed end-to-end under the old epoch and drains without further
  // allocation, so old-epoch holdings cannot close a dependency cycle
  // against claims made under the new rule.
  for (std::uint32_t vcId = 0; vcId < totalVcs_; ++vcId) {
    const Vc& vc = vcs_[vcId];
    if (vc.owner != kNoPacket && vc.out == kNoOut) {
      dropPacket(vc.owner, topo_->channelDst(vcChannel(vcId)));
    }
  }

  // Second oracle look, after the flush: only fully-routed worms survive,
  // so their hold chains must peel (end at ejection) under the stale rule.
  if (config_.oracleGate != nullptr) [[unlikely]] {
    auditRoutingState("mid_reconfig_preswap");
  }

  // The fabric rebuilds from the controller's alive masks (every publish
  // goes live) and this thread re-pins the new epoch; the old
  // pin is superseded, so the fabric reclaims the retired table once no
  // reader announces it.  Incremental rebuilds run against the epoch being
  // replaced — identical Reconfigurator inputs to the historical in-place
  // swap, so the published table is bit-for-bit the same.
  const fabric::PublishResult outcome = fabric_->publishFromMasks(
      faults_->linkAliveMask(), faults_->nodeAliveMask(),
      config_.reconfigIncremental);
  reconfigIncrementalSwaps_ += outcome.incremental;
  reconfigDestinationsRebuilt_ += outcome.rebuiltDestinations;
  reconfigVerified_ = reconfigVerified_ && outcome.ok;
  lastUnreachablePairs_ = outcome.unreachablePairs;
  if (timeseries_ != nullptr) {
    timeseries_->onReconfigComplete(now_, outcome.incremental,
                                    outcome.rebuiltDestinations,
                                    outcome.unreachablePairs);
  }
  fabricPin_ = fabric_->acquire(fabricReader_);
  table_ = &fabricPin_.table();
  fabric_->tryReclaim();
  ++reconfigurations_;
  faults_->closeWindow();
  if (!faults_->anyFault()) faultsActive_ = false;

  // Wake every parked claimant: what its old candidates were waiting for is
  // irrelevant under the new table.  (Parked headers were all unrouted
  // frontiers, so the flush above already emptied those lists; this also
  // re-arms sources that parked before the window opened.)
  for (topo::NodeId node = 0; node < topo_->nodeCount(); ++node) {
    for (std::uint32_t vcId : parkedHeaders_[node]) {
      pendingHeaders_.insert(vcId);
    }
    parkedHeaders_[node].clear();
    if (parkedSource_[node]) {
      parkedSource_[node] = 0;
      if (!sources_[node].queue.empty()) routableSources_.insert(node);
    }
  }
  idleCycles_ = 0;
}

bool WormholeNetwork::admitGeneratedPacket(topo::NodeId node,
                                           topo::NodeId dst) {
  if (!faults_->nodeAlive(node)) return false;  // dead hosts are silent
  if (!faults_->nodeAlive(dst)) {
    // Generated, then discarded on the spot.  Materialising the packet
    // record keeps the conservation law exact: packetsGenerated ==
    // ejected + droppedInFlight + droppedUnreachable.
    const auto pid = static_cast<PacketId>(packets_.size());
    packets_.push_back(Packet{node, dst, now_});
    packets_.back().dropped = true;
    ++packetsGenerated_;
    ++droppedUnreachable_;
    if (metrics_ != nullptr) metrics_->recordDrop(node);
    if (timeseries_ != nullptr) {
      timeseries_->recordGenerated();
      timeseries_->recordDrop();
    }
    if (tracer_ != nullptr && tracer_->sampled(pid)) {
      tracer_->onGenerated(pid, node, dst, now_);
      tracer_->record(obs::TraceEventKind::kDropped, pid, now_, node,
                      obs::PacketTracer::kNoChannel);
    }
    return false;
  }
  if (faults_->windowOpen() &&
      config_.faultInjectionPolicy == fault::InjectionPolicy::kDrop) {
    ++droppedInjection_;
    if (metrics_ != nullptr) metrics_->recordDrop(node);
    if (timeseries_ != nullptr) timeseries_->recordDrop();
    return false;
  }
  return true;
}

bool WormholeNetwork::dropUnroutableSourceFront(topo::NodeId node) {
  Source& source = sources_[node];
  while (!source.queue.empty()) {
    const PacketId pid = source.queue.front();
    const Packet& packet = packets_[pid];
    if (faults_->nodeAlive(packet.dst) &&
        table_->distance(node, packet.dst) != routing::kNoPath) {
      return true;
    }
    // Still queued, owns nothing: discard directly with attribution.
    packets_[pid].dropped = true;
    ++droppedUnreachable_;
    if (metrics_ != nullptr) metrics_->recordDrop(node);
    if (timeseries_ != nullptr) timeseries_->recordDrop();
    if (tracer_ != nullptr && tracer_->sampled(pid)) {
      tracer_->record(obs::TraceEventKind::kDropped, pid, now_, node,
                      obs::PacketTracer::kNoChannel);
    }
    source.queue.pop_front();
  }
  return false;
}

void WormholeNetwork::auditRoutingState(const char* point) {
  verify::OracleGate* const gate = config_.oracleGate;
  // Occupancy overlay in oracle form, mirroring sampleWaitFor(): a VC with
  // a committed next hop holds its channel against the downstream one
  // (ejection ends the chain); an unrouted header requests its minimal
  // candidates, but only fully-owned targets can actually block it.
  std::vector<verify::OccupancyEdge> holds;
  std::vector<verify::OccupancyEdge> requests;
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
      if (!isEject(vc.out)) holds.push_back({held, vcChannel(vc.out)});
      continue;
    }
    const topo::NodeId dst = packets_[vc.owner].dst;
    for (ChannelId c : table_->nextChannels(held, dst)) {
      if (channelFullyOwned(c)) requests.push_back({held, c});
    }
  }
  std::vector<std::uint8_t> alive(topo_->channelCount(), 0);
  for (ChannelId c = 0; c < topo_->channelCount(); ++c) {
    alive[c] = faults_->channelAlive(c) ? 1 : 0;
  }
  verify::OracleInput input;
  // The CURRENT rule — during an open window this is the stale epoch the
  // survivors were routed under, which is exactly what must still drain.
  // No table layer: its rows reference dead channels by design here.
  input.perms = &table_->permissions();
  input.channelAlive = alive;
  input.holdEdges = holds;
  input.requestEdges = requests;
  verify::CaseContext context;
  context.point = point;
  context.cycle = now_;
  context.epoch = fabric_->currentEpoch();
  if (waitfor_ != nullptr && waitfor_->everCycle()) {
    const auto witness = waitfor_->witnessCycle();
    context.waitForWitness.assign(witness.begin(), witness.end());
  }
  if (!gate->audit(input, context)) {
    fabric_->flightRecorder().record(
        obs::FabricEventKind::kAnomaly, now_,
        static_cast<std::uint64_t>(obs::AnomalyCode::kOracleViolation), 0);
  }
}

std::uint32_t WormholeNetwork::claimOutputVcDegraded(PacketId pid,
                                                     topo::NodeId node,
                                                     ChannelId in,
                                                     topo::NodeId dst) {
  const auto filterAlive = [this](const routing::Candidates& channels) {
    routing::Candidates alive;
    for (ChannelId c : channels) {
      if (faults_->channelAlive(c)) alive.push_back(c);
    }
    return alive;
  };
  if (config_.escapeAdaptiveRouting) {
    Packet& packet = packets_[pid];
    if (!packet.onEscape) {
      const routing::Candidates adaptive =
          filterAlive((in == topo::kInvalidChannel)
                          ? table_->firstChannels(node, dst)
                          : table_->nextChannelsAnyTurn(in, dst));
      candidateVcs_.clear();
      for (ChannelId ch : adaptive) {
        for (std::uint32_t v = 1; v < vcCount_; ++v) {
          const std::uint32_t vcId = ch * vcCount_ + v;
          if (vcs_[vcId].owner == kNoPacket) candidateVcs_.push_back(vcId);
        }
      }
      if (!candidateVcs_.empty()) {
        return commitClaim(pid,
                           candidateVcs_[rng_.below(candidateVcs_.size())]);
      }
    }
    const routing::Candidates escape =
        filterAlive((in == topo::kInvalidChannel)
                        ? table_->firstChannels(node, dst)
                        : table_->nextChannels(in, dst));
    candidateVcs_.clear();
    for (ChannelId ch : escape) {
      const std::uint32_t vcId = ch * vcCount_;
      if (vcs_[vcId].owner == kNoPacket) candidateVcs_.push_back(vcId);
    }
    if (candidateVcs_.empty()) return kNoOut;
    packet.onEscape = true;
    return commitClaim(pid, candidateVcs_[rng_.below(candidateVcs_.size())]);
  }

  // Minimal candidates only — misroute excursions are suspended while the
  // table is stale (a non-minimal detour computed against the healthy
  // topology has no reachability guarantee on the degraded one).
  const routing::Candidates candidates =
      filterAlive((in == topo::kInvalidChannel)
                      ? table_->firstChannels(node, dst)
                      : table_->nextChannels(in, dst));
  if (!config_.adaptiveSelection) {
    if (candidates.empty()) return kNoOut;
    const std::uint32_t vcId = candidates.front() * vcCount_;
    if (vcs_[vcId].owner != kNoPacket) return kNoOut;
    return commitClaim(pid, vcId);
  }
  candidateVcs_.clear();
  for (ChannelId ch : candidates) {
    for (std::uint32_t v = 0; v < vcCount_; ++v) {
      const std::uint32_t vcId = ch * vcCount_ + v;
      if (vcs_[vcId].owner == kNoPacket) candidateVcs_.push_back(vcId);
    }
  }
  if (candidateVcs_.empty()) return kNoOut;
  return commitClaim(pid, candidateVcs_[rng_.below(candidateVcs_.size())]);
}

}  // namespace downup::sim
