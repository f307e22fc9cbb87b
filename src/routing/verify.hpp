// One-call validation of a routing epoch: deadlock freedom (the rule's
// channel-dependency graph, restricted to alive channels, is acyclic) and
// connectivity (every ordered pair of alive nodes reachable on legal
// paths), read off the table's stored row totals.  Construction, both
// fault-rebuild paths and the examples share this one check; path-quality
// figures such as stretch live in routing/path_analysis.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "routing/algorithm.hpp"

namespace downup::routing {

struct VerifyReport {
  bool deadlockFree = false;
  bool connected = false;
  /// Non-empty iff !deadlockFree: a witness channel cycle.
  std::vector<ChannelId> cycleWitness;
  std::uint64_t unreachablePairs = 0;
  double averagePathLength = 0.0;

  bool ok() const noexcept { return deadlockFree && connected; }
  std::string describe() const;
};

/// `channelAlive` (one bit per channel) and `nodeAlive` (one byte per node)
/// are the epoch's masks, empty = all alive; `table` must have been built
/// under `channelAlive`.  O(channels x degree + nodes).
VerifyReport verifyRouting(const TurnPermissions& perms,
                           const RoutingTable& table,
                           std::span<const std::uint64_t> channelAlive = {},
                           std::span<const std::uint8_t> nodeAlive = {});

VerifyReport verifyRouting(const Routing& routing);

}  // namespace downup::routing
