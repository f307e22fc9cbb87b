// Sampled packet tracer: per-hop lifecycle events for a deterministic
// 1-in-N sample of packets, recorded by the engine and exported either as
// JSONL (one event per line) or as Chrome trace_event JSON loadable in
// chrome://tracing and Perfetto (see obs/export.hpp).
//
// Sampling is by packet id (pid % sampleEvery == 0), so the sample is
// deterministic across reruns and independent of what the observer does —
// tracing never draws RNG or perturbs the engine, only appends to buffers.
// The event vocabulary mirrors a wormhole packet's life:
//
//   generated     entered the source queue
//   injected      first flit left the source queue
//   blocked       a header waited for an output VC (duration = the wait)
//   vc_allocated  a header claimed an output VC (or an ejection port when
//                 channel == kNoChannel) — one per hop
//   channel_crossed  the header flit physically entered the channel
//   ejected       the tail flit left the network
//   dropped       the packet was discarded by the fault machinery (failed
//                 link/switch, reconfiguration flush, or unreachable
//                 destination); terminal like ejected
#pragma once

#include <cstdint>
#include <vector>

#include "routing/direction.hpp"

namespace downup::obs {

enum class TraceEventKind : std::uint8_t {
  kGenerated,
  kInjected,
  kBlocked,
  kVcAllocated,
  kChannelCrossed,
  kEjected,
  kDropped,
};

const char* toString(TraceEventKind kind) noexcept;

class PacketTracer {
 public:
  static constexpr std::uint32_t kNoChannel = topo::kInvalidChannel;
  /// Direction row meaning "injection" (no arrival direction); matches
  /// MetricsRegistry::kInjectRow.
  static constexpr std::uint8_t kNoDir =
      static_cast<std::uint8_t>(routing::kDirCount);

  struct PacketInfo {
    std::uint32_t packet;
    std::uint32_t src;
    std::uint32_t dst;
    std::uint64_t genCycle;
  };

  struct Event {
    std::uint32_t packet;
    std::uint64_t cycle;
    TraceEventKind kind;
    std::uint8_t fromDir;    // kNoDir when injecting / not applicable
    std::uint8_t toDir;      // kNoDir when not applicable
    std::uint32_t node;      // node the event happened at
    std::uint32_t channel;   // kNoChannel when not applicable
    std::uint64_t value;     // blocked: cycles waited
  };

  /// sampleEvery == 0 disables tracing entirely; 1 records every packet.
  explicit PacketTracer(std::uint32_t sampleEvery)
      : sampleEvery_(sampleEvery) {}

  bool enabled() const noexcept { return sampleEvery_ != 0; }
  bool sampled(std::uint32_t packet) const noexcept {
    return sampleEvery_ != 0 && packet % sampleEvery_ == 0;
  }
  std::uint32_t sampleEvery() const noexcept { return sampleEvery_; }

  /// Registers a sampled packet (call once, at generation).
  void onGenerated(std::uint32_t packet, std::uint32_t src, std::uint32_t dst,
                   std::uint64_t cycle) {
    packets_.push_back(PacketInfo{packet, src, dst, cycle});
    events_.push_back(Event{packet, cycle, TraceEventKind::kGenerated, kNoDir,
                            kNoDir, src, kNoChannel, 0});
  }

  void record(TraceEventKind kind, std::uint32_t packet, std::uint64_t cycle,
              std::uint32_t node, std::uint32_t channel,
              std::uint8_t fromDir = kNoDir, std::uint8_t toDir = kNoDir,
              std::uint64_t value = 0) {
    events_.push_back(
        Event{packet, cycle, kind, fromDir, toDir, node, channel, value});
  }

  const std::vector<PacketInfo>& packets() const noexcept { return packets_; }
  const std::vector<Event>& events() const noexcept { return events_; }

  /// Events of one packet, in recording (= cycle) order.
  std::vector<Event> packetEvents(std::uint32_t packet) const;

  /// The channels a sampled packet was routed over, in hop order: the
  /// channel of each of its kVcAllocated events, skipping the ejection
  /// claim (kNoChannel).  Empty for an unsampled or still-queued packet.
  std::vector<std::uint32_t> channelPath(std::uint32_t packet) const;

  void clear() {
    packets_.clear();
    events_.clear();
  }

 private:
  std::uint32_t sampleEvery_;
  std::vector<PacketInfo> packets_;
  std::vector<Event> events_;
};

}  // namespace downup::obs
