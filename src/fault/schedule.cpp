#include "fault/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "topology/properties.hpp"
#include "util/rng.hpp"

namespace downup::fault {

const char* toString(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kNodeDown: return "node_down";
    case FaultKind::kNodeUp: return "node_up";
  }
  return "unknown";
}

namespace {

/// Same-cycle ordering class: downs (0) apply before ups (1).  A link that
/// both fails and recovers at one cycle therefore deterministically flaps —
/// down, then up, net alive — instead of depending on insertion order.
inline int kindRank(FaultKind kind) noexcept {
  return kind == FaultKind::kLinkUp || kind == FaultKind::kNodeUp ? 1 : 0;
}

}  // namespace

FaultSchedule& FaultSchedule::add(std::uint64_t cycle, FaultKind kind,
                                  std::uint32_t id) {
  const FaultEvent event{cycle, kind, id};
  // Stable insertion within (cycle, rank): after every event already
  // scheduled at this cycle and rank, before any same-cycle up when adding
  // a down.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) {
        if (a.cycle != b.cycle) return a.cycle < b.cycle;
        return kindRank(a.kind) < kindRank(b.kind);
      });
  events_.insert(pos, event);
  return *this;
}

FaultSchedule& FaultSchedule::linkDown(std::uint64_t cycle, topo::LinkId link) {
  return add(cycle, FaultKind::kLinkDown, link);
}

FaultSchedule& FaultSchedule::linkUp(std::uint64_t cycle, topo::LinkId link) {
  return add(cycle, FaultKind::kLinkUp, link);
}

FaultSchedule& FaultSchedule::linkFlap(std::uint64_t cycle, topo::LinkId link,
                                       std::uint64_t downCycles) {
  linkDown(cycle, link);
  return linkUp(cycle + downCycles, link);
}

FaultSchedule& FaultSchedule::nodeDown(std::uint64_t cycle, topo::NodeId node) {
  return add(cycle, FaultKind::kNodeDown, node);
}

FaultSchedule& FaultSchedule::nodeUp(std::uint64_t cycle, topo::NodeId node) {
  return add(cycle, FaultKind::kNodeUp, node);
}

namespace {

/// Connectivity of `topo` restricted to links with alive[l] != 0 (all nodes
/// participate; used to veto partitioning failures).
bool aliveSubgraphConnected(const topo::Topology& topo,
                            const std::vector<std::uint8_t>& alive) {
  const topo::NodeId n = topo.nodeCount();
  if (n == 0) return true;
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<topo::NodeId> stack{0};
  seen[0] = 1;
  topo::NodeId visited = 1;
  while (!stack.empty()) {
    const topo::NodeId v = stack.back();
    stack.pop_back();
    const auto neighbors = topo.neighbors(v);
    const auto channels = topo.outputChannels(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (!alive[topo::Topology::linkOf(channels[i])]) continue;
      const topo::NodeId w = neighbors[i];
      if (seen[w]) continue;
      seen[w] = 1;
      ++visited;
      stack.push_back(w);
    }
  }
  return visited == n;
}

}  // namespace

FaultSchedule FaultSchedule::randomLinkFailures(const topo::Topology& topo,
                                                unsigned count,
                                                std::uint64_t firstCycle,
                                                std::uint64_t cycleStep,
                                                std::uint64_t seed,
                                                bool avoidPartition) {
  FaultSchedule schedule;
  util::Rng rng(seed);
  std::vector<std::uint8_t> alive(topo.linkCount(), 1);
  std::vector<topo::LinkId> candidates(topo.linkCount());
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) candidates[l] = l;

  std::uint64_t cycle = firstCycle;
  for (unsigned k = 0; k < count && !candidates.empty(); ) {
    const std::size_t pick = rng.below(candidates.size());
    const topo::LinkId link = candidates[pick];
    candidates.erase(candidates.begin() +
                     static_cast<std::ptrdiff_t>(pick));
    alive[link] = 0;
    if (avoidPartition && !aliveSubgraphConnected(topo, alive)) {
      alive[link] = 1;  // would split the network; try another link
      continue;
    }
    schedule.linkDown(cycle, link);
    cycle += cycleStep;
    ++k;
  }
  return schedule;
}

void FaultSchedule::validate(const topo::Topology& topo) const {
  for (const FaultEvent& event : events_) {
    const bool isLink = event.kind == FaultKind::kLinkDown ||
                        event.kind == FaultKind::kLinkUp;
    const std::uint32_t limit = isLink ? topo.linkCount() : topo.nodeCount();
    if (event.id >= limit) {
      throw std::invalid_argument(
          std::string("FaultSchedule: ") + toString(event.kind) + " id " +
          std::to_string(event.id) + " out of range (" +
          (isLink ? "links: " : "nodes: ") + std::to_string(limit) + ")");
    }
  }
}

}  // namespace downup::fault
