// Allocation phase: header routing and output-VC / ejection-port claims.
//
// Only VCs holding an unrouted header (pendingHeaders_) and sources with a
// queued but unplaced packet (routableSources_) are visited, in the exact
// rotated order the historical full scan used — the rotating allocOffset_
// gives through-traffic fairness AND doubles as the active-set iteration
// order, so RNG draws happen in the same sequence as before the active-set
// refactor.
//
// Candidate channels come from the RoutingTable's query-time scans, returned
// inline as routing::Candidates: the fast path performs no vector copies and
// no heap allocation per header.
#include "sim/network.hpp"

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace downup::sim {

void WormholeNetwork::allocateOutputs() {
  // Wake claimants parked at nodes where a VC or ejection port freed during
  // the previous transfer phase.  Re-inserting restores the exact rotated
  // visit order below, and every claimant the historical full scan could
  // have routed this cycle is back in its set (attempts it skipped while
  // parked were guaranteed failures with no side effects).
  if (!dirtyNodes_.empty()) {
    dirtyNodes_.forEach([this](std::uint32_t node) {
      for (std::uint32_t vcId : parkedHeaders_[node]) {
        pendingHeaders_.insert(vcId);
      }
      parkedHeaders_[node].clear();
      if (parkedSource_[node]) {
        parkedSource_[node] = 0;
        routableSources_.insert(node);
      }
    });
    dirtyNodes_.clear();
  }

  // Network headers first (through-traffic priority), rotating start for
  // fairness; then injection headers.
  if (!pendingHeaders_.empty()) {
    pendingHeaders_.forEachRotated(
        allocOffset_ % totalVcs_, [this](std::uint32_t vcId) {
          // Set invariant: owner set, out == kNoOut, buffered > 0.  The
          // only per-visit condition is the 1-cycle routing delay.
          if (vcs_[vcId].headReadyAt >= now_) return;
          routeHeader(vcId);
          if (vcs_[vcId].out != kNoOut) {
            pendingHeaders_.erase(vcId);
          } else if (parkingEnabled_) {
            pendingHeaders_.erase(vcId);
            parkedHeaders_[topo_->channelDst(vcChannel(vcId))].push_back(vcId);
          }
        });
  }
  // Injection is frozen while a reconfiguration window is open: sources
  // stay in their set (skipping them has no side effects and draws no RNG)
  // and compete again the cycle the rebuilt table is swapped in.
  if (faultsActive_ && faults_->windowOpen()) return;
  if (!routableSources_.empty()) {
    routableSources_.forEachRotated(
        allocOffset_ % topo_->nodeCount(), [this](std::uint32_t node) {
          // Set invariant: queue non-empty, out == kNoOut.
          Source& source = sources_[node];
          if (faultsActive_ && !dropUnroutableSourceFront(node)) {
            routableSources_.erase(node);  // queue drained by the drops
            return;
          }
          if (packets_[source.queue.front()].genTime >= now_) return;
          routeSource(node);
          if (source.out != kNoOut) {
            routableSources_.erase(node);
          } else if (parkingEnabled_) {
            routableSources_.erase(node);
            parkedSource_[node] = 1;
          }
        });
  }
}

void WormholeNetwork::routeHeader(std::uint32_t vcId) {
  Vc& vc = vcs_[vcId];
  const ChannelId in = vcChannel(vcId);
  const topo::NodeId node = topo_->channelDst(in);
  const topo::NodeId dst = packets_[vc.owner].dst;
  vc.out = (dst == node) ? claimEjectPort(vc.owner, node)
                         : claimOutputVc(vc.owner, node, in, dst);
  // A routed VC has buffered > 0 by the pendingHeaders_ invariant, so its
  // flits become forwardable the moment the claim lands.
  if (vc.out != kNoOut) {
    markMovable(vcId);
    if (obsClaims_) {
      // The earliest possible claim is headReadyAt + 1 (the 1-clock routing
      // delay); anything later is time spent blocked, counted here so the
      // attribution is exact under blocked-claimant parking too.
      observeClaim(vc.owner, node, in, vc.out, now_ - vc.headReadyAt - 1);
    }
  }
}

void WormholeNetwork::routeSource(topo::NodeId node) {
  Source& source = sources_[node];
  const PacketId pid = source.queue.front();
  source.out = claimOutputVc(pid, node, topo::kInvalidChannel,
                             packets_[pid].dst);
  if (source.out != kNoOut) {
    busySources_.insert(node);
    // Injection claims carry no blocked attribution: time spent waiting in
    // the source queue is already measured as queueing delay.
    if (obsClaims_) observeClaim(pid, node, topo::kInvalidChannel, source.out, 0);
  }
}

void WormholeNetwork::observeClaim(PacketId pid, topo::NodeId node,
                                   ChannelId in, std::uint32_t out,
                                   std::uint64_t waited) {
  const bool eject = isEject(out);
  const auto& perms = table_->permissions();
  const std::uint32_t fromRow =
      (in == topo::kInvalidChannel)
          ? obs::MetricsRegistry::kInjectRow
          : static_cast<std::uint32_t>(routing::index(perms.dir(in)));
  const std::uint32_t toDir =
      eject ? 0
            : static_cast<std::uint32_t>(
                  routing::index(perms.dir(vcChannel(out))));
  if (metrics_ != nullptr && !eject && now_ >= config_.warmupCycles) {
    metrics_->recordTurnClaim(node, fromRow, toDir, waited);
  }
  if (timeseries_ != nullptr && waited > 0) {
    timeseries_->recordBlocked(node, waited);
  }
  if (tracer_ != nullptr && tracer_->sampled(pid)) {
    const std::uint32_t channel =
        eject ? obs::PacketTracer::kNoChannel : vcChannel(out);
    const auto from = static_cast<std::uint8_t>(fromRow);
    const std::uint8_t to = eject ? obs::PacketTracer::kNoDir
                                  : static_cast<std::uint8_t>(toDir);
    if (waited > 0) {
      tracer_->record(obs::TraceEventKind::kBlocked, pid, now_, node, channel,
                      from, to, waited);
    }
    tracer_->record(obs::TraceEventKind::kVcAllocated, pid, now_, node,
                    channel, from, to);
  }
}

std::uint32_t WormholeNetwork::commitClaim(PacketId pid, std::uint32_t vcId) {
  vcs_[vcId].owner = pid;
  ++ownedVcs_;
  return vcId;
}

std::uint32_t WormholeNetwork::claimEscapeAdaptive(PacketId pid,
                                                   topo::NodeId node,
                                                   ChannelId in,
                                                   topo::NodeId dst) {
  Packet& packet = packets_[pid];
  if (!packet.onEscape) {
    // Adaptive class first: VCs >= 1 of every output one potential step
    // closer, turn rule ignored.
    const routing::Candidates adaptive =
        (in == topo::kInvalidChannel) ? table_->firstChannels(node, dst)
                                      : table_->nextChannelsAnyTurn(in, dst);
    candidateVcs_.clear();
    for (ChannelId ch : adaptive) {
      for (std::uint32_t v = 1; v < vcCount_; ++v) {
        const std::uint32_t vcId = ch * vcCount_ + v;
        if (vcs_[vcId].owner == kNoPacket) candidateVcs_.push_back(vcId);
      }
    }
    if (!candidateVcs_.empty()) {
      return commitClaim(pid, candidateVcs_[rng_.below(candidateVcs_.size())]);
    }
  }
  // Escape class: VC 0 of turn-legal minimal outputs; sticky once taken.
  const routing::Candidates escape =
      (in == topo::kInvalidChannel) ? table_->firstChannels(node, dst)
                                    : table_->nextChannels(in, dst);
  candidateVcs_.clear();
  for (ChannelId ch : escape) {
    const std::uint32_t vcId = ch * vcCount_;
    if (vcs_[vcId].owner == kNoPacket) candidateVcs_.push_back(vcId);
  }
  if (candidateVcs_.empty()) return kNoOut;
  packet.onEscape = true;
  return commitClaim(pid, candidateVcs_[rng_.below(candidateVcs_.size())]);
}

std::uint32_t WormholeNetwork::claimOutputVc(PacketId pid, topo::NodeId node,
                                             ChannelId in, topo::NodeId dst) {
  if (faultsActive_ && faults_->windowOpen()) {
    // The table is stale against the degraded topology until the swap;
    // route on it with the dead channels filtered out.
    return claimOutputVcDegraded(pid, node, in, dst);
  }
  if (config_.escapeAdaptiveRouting) {
    return claimEscapeAdaptive(pid, node, in, dst);
  }
  routing::Candidates candidates;
  const bool misroute = config_.misrouteProbability > 0.0 &&
                        rng_.chance(config_.misrouteProbability);
  if (misroute) {
    // Non-minimal adaptive mode: every output that respects the turn rule
    // and from which the destination remains reachable is a candidate.
    const auto& perms = table_->permissions();
    for (ChannelId c : topo_->outputChannels(node)) {
      if (table_->channelSteps(dst, c) == routing::kNoPath) continue;
      if (in != topo::kInvalidChannel && !perms.allowed(node, in, c)) {
        continue;  // allowed() also excludes the U-turn back over `in`
      }
      candidates.push_back(c);
    }
  } else if (in == topo::kInvalidChannel) {
    candidates = table_->firstChannels(node, dst);
  } else {
    candidates = table_->nextChannels(in, dst);
  }
  if (!config_.adaptiveSelection) {
    // Deterministic mode: the route is fixed a priori — wait for VC 0 of
    // the first legal output channel, never divert to a free alternative.
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
  // Random pick among free minimal candidates = the paper's random choice
  // among shortest legal paths.
  return commitClaim(pid, candidateVcs_[rng_.below(candidateVcs_.size())]);
}

std::uint32_t WormholeNetwork::claimEjectPort(PacketId pid,
                                              topo::NodeId node) {
  const std::uint32_t base = node * config_.ejectionPortsPerNode;
  for (std::uint32_t p = 0; p < config_.ejectionPortsPerNode; ++p) {
    if (ejectOwner_[base + p] == kNoPacket) {
      ejectOwner_[base + p] = pid;
      return ejectBase_ + base + p;
    }
  }
  return kNoOut;
}

}  // namespace downup::sim
