// Flow control: pipeline arrivals into VC buffers, credit accounting, and
// the execution of granted flit movements — every place a flit or credit
// changes hands, and therefore every place the active sets and the
// owned-VC watchdog counter transition.
#include "sim/network.hpp"

#include <cassert>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace downup::sim {

void WormholeNetwork::deliverArrivals() {
  auto& slot = arrivals_[now_ % (kPipelineCycles + 1)];
  for (std::uint32_t vcId : slot) {
    Vc& vc = vcs_[vcId];
    assert(vc.owner != kNoPacket && "arrival into unowned VC");
    assert(vc.buffered < config_.bufferDepthFlits && "buffer overflow");
    ++vc.buffered;
    if (vc.entered++ == 0) {
      // Header arrival: the VC is not routed yet (out == kNoOut), so it
      // joins the allocation set; the 1-cycle routing delay is enforced by
      // headReadyAt at visit time.
      vc.headReadyAt = now_;
      pendingHeaders_.insert(vcId);
    } else if (vc.out != kNoOut && vc.buffered == 1) {
      // A routed VC whose buffer had drained has forwardable work again.
      markMovable(vcId);
    }
  }
  slot.clear();
}

void WormholeNetwork::executeMove(bool fromSource, std::uint32_t index) {
  movedThisCycle_ = true;
  const std::uint32_t len = config_.packetLengthFlits;

  PacketId pid;
  std::uint32_t out;
  std::uint32_t flitIdx;
  if (fromSource) {
    Source& source = sources_[index];
    pid = source.queue.front();
    out = source.out;
    flitIdx = source.sent++;
    if (timeseries_ != nullptr) timeseries_->recordInjectedFlit();
    if (flitIdx == 0) {
      packets_[pid].injectTime = now_;
      if (tracer_ != nullptr && tracer_->sampled(pid)) {
        tracer_->record(obs::TraceEventKind::kInjected, pid, now_, index,
                        obs::PacketTracer::kNoChannel);
      }
    }
  } else {
    Vc& vc = vcs_[index];
    pid = vc.owner;
    out = vc.out;
    flitIdx = vc.sent++;
    --vc.buffered;
    ++credit_[index];  // the slot frees for whoever feeds this VC
    if (vc.buffered == 0) unmarkMovable(index);
  }
  const bool isTail = flitIdx + 1 == len;
  const bool measuring = now_ >= config_.warmupCycles;

  if (isEject(out)) {
    telemetry_.recordEjectedFlit(measuring);
    if (timeseries_ != nullptr) timeseries_->recordEjectedFlit();
    if (isTail) {
      const topo::NodeId ejectNode =
          (out - ejectBase_) / config_.ejectionPortsPerNode;
      ejectOwner_[out - ejectBase_] = kNoPacket;
      if (parkingEnabled_) {
        // A free ejection port wakes claimants parked at its node.
        dirtyNodes_.insert(ejectNode);
      }
      ++packetsEjectedTotal_;
      Packet& packet = packets_[pid];
      packet.ejectTime = now_;
      if (packet.genTime >= config_.warmupCycles) {
        telemetry_.recordDelivered(
            static_cast<double>(now_ - packet.genTime + 1),
            static_cast<double>(packet.injectTime - packet.genTime),
            measuring);
      }
      // The flight recorder is not warmup-gated: warm-up windows are how
      // warm-up adequacy is checked in the first place.
      if (timeseries_ != nullptr) {
        timeseries_->recordDelivered(
            static_cast<double>(now_ - packet.genTime + 1));
      }
      if (tracer_ != nullptr && tracer_->sampled(pid)) {
        tracer_->record(obs::TraceEventKind::kEjected, pid, now_, ejectNode,
                        obs::PacketTracer::kNoChannel);
      }
    }
  } else {
    --credit_[out];
    arrivals_[(now_ + kPipelineCycles) % (kPipelineCycles + 1)].push_back(out);
    telemetry_.recordChannelFlit(vcChannel(out), measuring);
    if (metrics_ != nullptr && measuring) {
      metrics_->recordChannelFlit(vcChannel(out));
    }
    if (timeseries_ != nullptr) timeseries_->recordChannelFlit(vcChannel(out));
    if (tracer_ != nullptr && flitIdx == 0 && tracer_->sampled(pid)) {
      tracer_->record(obs::TraceEventKind::kChannelCrossed, pid, now_,
                      topo_->channelSrc(vcChannel(out)), vcChannel(out));
    }
  }

  if (isTail) {
    if (fromSource) {
      Source& source = sources_[index];
      source.queue.pop_front();
      source.sent = 0;
      source.out = kNoOut;
      busySources_.erase(index);
      // The next queued packet (if any) competes for allocation again.
      if (!source.queue.empty()) routableSources_.insert(index);
    } else {
      Vc& vc = vcs_[index];
      assert(vc.buffered == 0 && "flits behind the tail");
      vc.owner = kNoPacket;
      vc.out = kNoOut;
      vc.entered = 0;
      vc.sent = 0;
      --ownedVcs_;
      if (parkingEnabled_) {
        // The freed VC is an output of the channel's source node; wake the
        // claimants parked there.
        dirtyNodes_.insert(topo_->channelSrc(vcChannel(index)));
      }
    }
  }
}

}  // namespace downup::sim
