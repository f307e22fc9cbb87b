// Hop-by-hop route walk over a routing table's candidate queries: the unit
// of work of the lookup measurements.
#pragma once

#include <cstdint>

#include "routing/routing_table.hpp"

namespace perfbench {

/// Walks src -> dst: firstChannels at the source, then nextChannels at
/// every hop until the destination, choosing among the candidates by
/// `salt` (so different walks take different minimal paths).  Returns the
/// hop count, or -1 when a query offers no candidate or the walk runs past
/// `maxHops`.
inline int walkRoute(const downup::routing::RoutingTable& table,
                     downup::routing::NodeId src, downup::routing::NodeId dst,
                     std::uint32_t salt, int maxHops) {
  const auto& topo = table.topology();
  auto options = table.firstChannels(src, dst);
  int hops = 0;
  while (!options.empty()) {
    const downup::routing::ChannelId c =
        options[(salt + hops) % options.size()];
    ++hops;
    const downup::routing::NodeId at = topo.channelDst(c);
    if (at == dst) return hops;
    if (hops >= maxHops) return -1;
    options = table.nextChannels(c, dst);
  }
  return -1;
}

}  // namespace perfbench
