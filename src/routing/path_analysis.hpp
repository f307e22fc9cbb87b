// Static path analysis over a routing table: without running a simulation,
// predict how traffic distributes when every source-destination pair splits
// its flow uniformly across all minimal legal paths.
//
// This is the classical "path counting" analysis: for each destination a
// forward/backward DP over the channel DAG (channels ordered by remaining
// steps) yields, per channel, the expected fraction of (s, d) flows crossing
// it.  The resulting static channel loads predict the simulator's measured
// utilizations remarkably well below saturation, and the static analogues of
// the paper's Table 1-4 metrics can be computed in milliseconds — see
// bench/exp_static_analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/routing_table.hpp"
#include "util/rng.hpp"

namespace downup::routing {

struct PathAnalysis {
  /// expectedLoad[c]: sum over ordered pairs (s != d) of the probability
  /// that the pair's flow crosses channel c (uniform splitting at every
  /// adaptive branch).  Sum over channels == sum of legal path lengths over
  /// pairs (each pair contributes its path length in channel-visits).
  std::vector<double> expectedLoad;

  /// Number of distinct minimal legal paths per ordered pair, saturating at
  /// 2^63 (informational; paths can be exponential on large networks).
  /// pathCount[s * n + d]; 1 on the diagonal by convention.
  std::vector<double> pathCount;

  double maxLoad = 0.0;
  double meanLoad = 0.0;

  /// Mean over ordered pairs of the number of minimal legal paths.
  double meanPathCount = 0.0;
};

/// Runs the analysis; O(destinations x channels x degree).
PathAnalysis analyzePaths(const RoutingTable& table);

/// Mean number of minimal legal first-hop choices over ordered pairs — the
/// adaptivity figure used by the examples.
double averageAdaptivity(const RoutingTable& table);

/// Legal distance over graph distance, across the reachable ordered pairs
/// (src != dst); both figures are >= 1.
struct Stretch {
  double average = 0.0;
  double max = 0.0;
};

/// One topology BFS per source against the table's legal distances:
/// O(nodes x (nodes + links)).  A diagnostic for reports; the epoch check
/// (routing/verify.hpp) does not pay for it.
Stretch pathStretch(const RoutingTable& table);

/// One minimal legal path src -> dst as a channel sequence; uniformly random
/// among per-hop choices when `rng` is given, lowest-numbered otherwise.
/// Empty when src == dst or dst is unreachable.
std::vector<ChannelId> samplePath(const RoutingTable& table, NodeId src,
                                  NodeId dst, util::Rng* rng = nullptr);

/// Every minimal legal path src -> dst, up to `limit` paths (path counts can
/// be exponential).  Paths are produced in lexicographic channel order.
std::vector<std::vector<ChannelId>> enumerateMinimalPaths(
    const RoutingTable& table, NodeId src, NodeId dst, std::size_t limit = 64);

}  // namespace downup::routing
