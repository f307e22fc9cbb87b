#include "obs/trace.hpp"

namespace downup::obs {

const char* toString(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kGenerated: return "generated";
    case TraceEventKind::kInjected: return "injected";
    case TraceEventKind::kBlocked: return "blocked";
    case TraceEventKind::kVcAllocated: return "vc_allocated";
    case TraceEventKind::kChannelCrossed: return "channel_crossed";
    case TraceEventKind::kEjected: return "ejected";
    case TraceEventKind::kDropped: return "dropped";
  }
  return "unknown";
}

std::vector<PacketTracer::Event> PacketTracer::packetEvents(
    std::uint32_t packet) const {
  std::vector<Event> result;
  for (const Event& event : events_) {
    if (event.packet == packet) result.push_back(event);
  }
  return result;
}

std::vector<std::uint32_t> PacketTracer::channelPath(
    std::uint32_t packet) const {
  std::vector<std::uint32_t> path;
  for (const Event& event : events_) {
    if (event.packet == packet && event.kind == TraceEventKind::kVcAllocated &&
        event.channel != kNoChannel) {
      path.push_back(event.channel);
    }
  }
  return path;
}

}  // namespace downup::obs
