#include "routing/path_analysis.hpp"

#include <algorithm>
#include <numeric>

#include "topology/properties.hpp"

namespace downup::routing {

PathAnalysis analyzePaths(const RoutingTable& table) {
  const Topology& topo = table.topology();
  const NodeId n = topo.nodeCount();
  const std::uint32_t channels = topo.channelCount();

  PathAnalysis analysis;
  analysis.expectedLoad.assign(channels, 0.0);
  analysis.pathCount.assign(static_cast<std::size_t>(n) * n, 1.0);

  std::vector<ChannelId> order(channels);
  std::vector<double> inflow(channels);
  std::vector<double> paths(channels);

  for (NodeId dst = 0; dst < n; ++dst) {
    // Channels reachable to dst, sorted by remaining steps descending: flow
    // propagates along edges that decrease steps by exactly one.
    order.clear();
    for (ChannelId c = 0; c < channels; ++c) {
      if (table.channelSteps(dst, c) != kNoPath) order.push_back(c);
    }
    std::sort(order.begin(), order.end(),
              [&table, dst](ChannelId a, ChannelId b) {
                return table.channelSteps(dst, a) > table.channelSteps(dst, b);
              });

    // Path counts, in increasing-steps order (reverse of `order`).
    std::fill(paths.begin(), paths.end(), 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const ChannelId c = *it;
      const std::uint16_t remaining = table.channelSteps(dst, c);
      if (remaining == 1) {
        paths[c] = 1.0;
        continue;
      }
      double total = 0.0;
      for (ChannelId next : table.nextChannels(c, dst)) total += paths[next];
      paths[c] = total;
    }

    // Source injection: every s != dst splits one unit of flow uniformly
    // over its minimal first channels.
    std::fill(inflow.begin(), inflow.end(), 0.0);
    for (NodeId s = 0; s < n; ++s) {
      if (s == dst) continue;
      const Candidates firsts = table.firstChannels(s, dst);
      if (firsts.empty()) continue;  // unreachable pair
      const double share = 1.0 / static_cast<double>(firsts.size());
      for (ChannelId c : firsts) inflow[c] += share;

      double count = 0.0;
      for (ChannelId c : firsts) count += paths[c];
      analysis.pathCount[static_cast<std::size_t>(s) * n + dst] = count;
    }

    // Propagate in decreasing-steps order with uniform splitting.
    for (ChannelId c : order) {
      if (inflow[c] <= 0.0) continue;
      analysis.expectedLoad[c] += inflow[c];
      const std::uint16_t remaining = table.channelSteps(dst, c);
      if (remaining <= 1) continue;  // consumed at the destination
      const Candidates successors = table.nextChannels(c, dst);
      const double share =
          inflow[c] / static_cast<double>(successors.size());
      for (ChannelId next : successors) inflow[next] += share;
    }
  }

  if (channels > 0) {
    analysis.maxLoad =
        *std::max_element(analysis.expectedLoad.begin(),
                          analysis.expectedLoad.end());
    analysis.meanLoad = std::accumulate(analysis.expectedLoad.begin(),
                                        analysis.expectedLoad.end(), 0.0) /
                        static_cast<double>(channels);
  }
  if (n > 1) {
    double sum = 0.0;
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId d = 0; d < n; ++d) {
        if (s != d) sum += analysis.pathCount[static_cast<std::size_t>(s) * n + d];
      }
    }
    analysis.meanPathCount =
        sum / static_cast<double>(static_cast<std::uint64_t>(n) * (n - 1));
  }
  return analysis;
}

std::vector<ChannelId> samplePath(const RoutingTable& table, NodeId src,
                                  NodeId dst, util::Rng* rng) {
  std::vector<ChannelId> path;
  if (src == dst || table.distance(src, dst) == kNoPath) return path;
  Candidates options = table.firstChannels(src, dst);
  while (!options.empty()) {
    const ChannelId next =
        rng == nullptr ? options.front()
                       : options[rng->below(options.size())];
    path.push_back(next);
    if (table.topology().channelDst(next) == dst) break;
    options = table.nextChannels(next, dst);
  }
  return path;
}

std::vector<std::vector<ChannelId>> enumerateMinimalPaths(
    const RoutingTable& table, NodeId src, NodeId dst, std::size_t limit) {
  std::vector<std::vector<ChannelId>> paths;
  if (src == dst || limit == 0 || table.distance(src, dst) == kNoPath) {
    return paths;
  }
  // DFS over per-hop candidate lists; candidates come out of the table in
  // ascending channel order, so paths emerge lexicographically.
  struct Frame {
    Candidates options;
    std::size_t next = 0;
  };
  std::vector<Frame> stack{{table.firstChannels(src, dst)}};
  std::vector<ChannelId> current;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next >= frame.options.size()) {
      stack.pop_back();
      if (!current.empty()) current.pop_back();
      continue;
    }
    const ChannelId chosen = frame.options[frame.next++];
    current.push_back(chosen);
    if (table.topology().channelDst(chosen) == dst) {
      paths.push_back(current);
      if (paths.size() >= limit) return paths;
      current.pop_back();
      continue;
    }
    stack.push_back({table.nextChannels(chosen, dst)});
  }
  return paths;
}

double averageAdaptivity(const RoutingTable& table) {
  const Topology& topo = table.topology();
  double sum = 0.0;
  std::uint64_t pairs = 0;
  for (NodeId s = 0; s < topo.nodeCount(); ++s) {
    for (NodeId d = 0; d < topo.nodeCount(); ++d) {
      if (s == d) continue;
      sum += static_cast<double>(table.firstChannels(s, d).size());
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

Stretch pathStretch(const RoutingTable& table) {
  const Topology& topo = table.topology();
  const NodeId n = topo.nodeCount();
  Stretch stretch;
  double sum = 0.0;
  std::uint64_t pairs = 0;
  for (NodeId s = 0; s < n; ++s) {
    const auto graphDist = topo::bfsDistances(topo, s);
    for (NodeId d = 0; d < n; ++d) {
      const std::uint16_t legal = table.distance(s, d);
      if (s == d || legal == kNoPath) continue;
      const double ratio = static_cast<double>(legal) /
                           static_cast<double>(graphDist[d]);
      sum += ratio;
      stretch.max = std::max(stretch.max, ratio);
      ++pairs;
    }
  }
  stretch.average = pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
  return stretch;
}

}  // namespace downup::routing
