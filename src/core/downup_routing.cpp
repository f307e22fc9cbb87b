#include "core/downup_routing.hpp"

#include <stdexcept>

namespace downup::core {

routing::TurnPermissions buildDownUpRule(const routing::Topology& topo,
                                         const tree::CoordinatedTree& ct,
                                         const DownUpOptions& options) {
  util::ScopedSpan classifySpan(options.spans, "classify");
  routing::TurnPermissions perms(topo, routing::classifyDownUp(topo, ct),
                                 downUpTurnSet());
  classifySpan.close();
  // Repair before release: releases are checked against (and must remain
  // consistent with) the final acyclic permission set.
  if (options.repairCycles) {
    util::ScopedSpan repairSpan(options.spans, "repair");
    repairTurnCycles(perms);
  }
  if (options.releaseRedundant) {
    util::ScopedSpan releaseSpan(options.spans, "release");
    releaseRedundantProhibitions(perms);
  }
  return perms;
}

routing::Routing buildDownUp(const routing::Topology& topo,
                             const tree::CoordinatedTree& ct,
                             const DownUpOptions& options) {
  return routing::Routing(
      options.releaseRedundant ? "downup" : "downup-norelease",
      buildDownUpRule(topo, ct, options), options.pool, options.spans);
}

std::string_view toString(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kUpDownBfs: return "updown-bfs";
    case Algorithm::kUpDownDfs: return "updown-dfs";
    case Algorithm::kLTurn: return "lturn";
    case Algorithm::kLeftRight: return "leftright";
    case Algorithm::kDownUp: return "downup";
    case Algorithm::kDownUpNoRelease: return "downup-norelease";
  }
  return "?";
}

routing::Routing buildRouting(Algorithm algorithm,
                              const routing::Topology& topo,
                              const tree::CoordinatedTree& ct,
                              util::ThreadPool* pool) {
  switch (algorithm) {
    case Algorithm::kUpDownBfs:
      return routing::buildUpDown(topo, ct);
    case Algorithm::kUpDownDfs:
      return routing::buildUpDownDfs(topo, ct.root());
    case Algorithm::kLTurn:
      return routing::buildLTurn(topo, ct);
    case Algorithm::kLeftRight:
      return routing::buildLeftRight(topo, ct);
    case Algorithm::kDownUp:
      return buildDownUp(topo, ct, {.releaseRedundant = true, .pool = pool});
    case Algorithm::kDownUpNoRelease:
      return buildDownUp(topo, ct, {.releaseRedundant = false, .pool = pool});
  }
  throw std::invalid_argument("buildRouting: unknown algorithm");
}

}  // namespace downup::core
