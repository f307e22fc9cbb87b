#include "routing/verify.hpp"

#include <sstream>

#include "routing/cdg.hpp"

namespace downup::routing {

std::string VerifyReport::describe() const {
  std::ostringstream out;
  out << (deadlockFree ? "deadlock-free" : "HAS CHANNEL-DEPENDENCY CYCLE")
      << ", " << (connected ? "connected" : "NOT CONNECTED");
  if (unreachablePairs > 0) out << " (" << unreachablePairs << " pairs unreachable)";
  out << ", avg path " << averagePathLength;
  return out.str();
}

VerifyReport verifyRouting(const TurnPermissions& perms,
                           const RoutingTable& table,
                           std::span<const std::uint64_t> channelAlive,
                           std::span<const std::uint8_t> nodeAlive) {
  VerifyReport report;
  CdgResult cdg = checkChannelDependencies(perms, channelAlive);
  report.deadlockFree = cdg.acyclic;
  report.cycleWitness = std::move(cdg.cycle);
  const RoutingTable::PairTotals pairs = table.pairTotals(nodeAlive);
  report.unreachablePairs = pairs.unreachablePairs;
  report.connected =
      pairs.unreachablePairs == 0 && table.topology().nodeCount() > 0;
  report.averagePathLength = pairs.meanHops();
  return report;
}

VerifyReport verifyRouting(const Routing& routing) {
  return verifyRouting(routing.permissions(), routing.table());
}

}  // namespace downup::routing
