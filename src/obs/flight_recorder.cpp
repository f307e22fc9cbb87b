#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <ostream>

#include "obs/export.hpp"

namespace downup::obs {

const char* toString(FabricEventKind kind) noexcept {
  switch (kind) {
    case FabricEventKind::kRebuildStarted: return "rebuild_started";
    case FabricEventKind::kRebuildFinished: return "rebuild_finished";
    case FabricEventKind::kPublish: return "publish";
    case FabricEventKind::kReclaim: return "reclaim";
    case FabricEventKind::kAnomaly: return "anomaly";
  }
  return "?";
}

const char* toString(AnomalyCode code) noexcept {
  switch (code) {
    case AnomalyCode::kUnverifiedRouting: return "unverified_routing";
    case AnomalyCode::kWaitForHardCycle: return "waitfor_hard_cycle";
    case AnomalyCode::kOracleViolation: return "oracle_violation";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()) {
  std::size_t pow2 = 1;
  while (pow2 < capacity) pow2 <<= 1;
  slots_backing_ = std::make_unique<Slot[]>(pow2);
  slots_ = {slots_backing_.get(), pow2};
  mask_ = pow2 - 1;
}

void FlightRecorder::record(FabricEventKind kind, std::uint64_t cycle,
                            std::uint64_t a, std::uint64_t b,
                            std::uint64_t c) noexcept {
  const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  // Mark busy (even stamp) so a concurrent dump discards the slot, fill
  // the payload with relaxed stores, then publish (odd stamp, release) so
  // a reader that sees the published stamp also sees every payload store.
  slot.stamp.store(ticket << 1, std::memory_order_release);
  slot.timeNs.store(nowNs(), std::memory_order_relaxed);
  slot.cycle.store(cycle, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.c.store(c, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  slot.stamp.store((ticket << 1) | 1, std::memory_order_release);
}

std::size_t FlightRecorder::dump(std::vector<FabricEvent>& out) const {
  out.clear();
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const std::uint64_t stamp1 = slot.stamp.load(std::memory_order_acquire);
    if ((stamp1 & 1) == 0) continue;  // never published or mid-write
    FabricEvent event;
    event.seq = stamp1 >> 1;
    event.timeNs = slot.timeNs.load(std::memory_order_relaxed);
    event.cycle = slot.cycle.load(std::memory_order_relaxed);
    event.a = slot.a.load(std::memory_order_relaxed);
    event.b = slot.b.load(std::memory_order_relaxed);
    event.c = slot.c.load(std::memory_order_relaxed);
    event.kind =
        static_cast<FabricEventKind>(slot.kind.load(std::memory_order_relaxed));
    // A concurrent writer may have overwritten the slot mid-copy; the
    // payload loads cannot tear individually (atomics), and the stamp
    // re-check rejects a mixed-generation copy.
    if (slot.stamp.load(std::memory_order_acquire) != stamp1) continue;
    out.push_back(event);
  }
  std::sort(out.begin(), out.end(),
            [](const FabricEvent& x, const FabricEvent& y) {
              return x.seq < y.seq;
            });
  return out.size();
}

void FlightRecorder::writeJsonl(std::ostream& out) const {
  std::vector<FabricEvent> events;
  dump(events);
  out << "{\"record\":\"meta\",\"schema\":\"obs_flight/1\",\"gitRev\":\""
      << gitRevision() << "\",\"timestampUtc\":\"" << utcTimestamp()
      << "\",\"capacity\":" << capacity() << ",\"recorded\":" << recorded()
      << ",\"dumped\":" << events.size() << "}\n";
  for (const FabricEvent& event : events) {
    out << "{\"record\":\"event\",\"seq\":" << event.seq
        << ",\"timeNs\":" << event.timeNs << ",\"cycle\":" << event.cycle
        << ",\"kind\":\"" << toString(event.kind) << "\",\"a\":" << event.a
        << ",\"b\":" << event.b << ",\"c\":" << event.c;
    if (event.kind == FabricEventKind::kAnomaly) {
      out << ",\"anomaly\":\""
          << toString(static_cast<AnomalyCode>(event.a)) << "\"";
    }
    out << "}\n";
  }
}

}  // namespace downup::obs
