#include "verify/oracle.hpp"

#include <algorithm>
#include <cstddef>

#include "topology/topology.hpp"

namespace downup::verify {

using routing::kNoPath;
using routing::TurnPermissions;
using topo::Topology;

namespace {

constexpr std::uint32_t kUnseen = static_cast<std::uint32_t>(-1);

bool aliveChannel(std::span<const std::uint8_t> mask, ChannelId c) {
  return mask.empty() || mask[c] != 0;
}

/// Peels vertices of out-degree zero until convergence and reports the
/// residual (the greatest fixed point of "has a non-drainable successor").
/// `adjacency` is CSR over the vertex universe [0, n); `inCore` receives
/// one byte per vertex.  Returns the residual size.
struct PeelGraph {
  std::vector<std::uint32_t> offsets;  // n + 1
  std::vector<ChannelId> targets;
  std::vector<std::uint8_t> member;  // vertex participates at all
};

std::uint32_t peelResidual(const PeelGraph& g, std::vector<std::uint8_t>& inCore) {
  const std::size_t n = g.member.size();
  std::vector<std::uint32_t> outdeg(n, 0);
  // Reverse adjacency, counting-sort style.
  std::vector<std::uint32_t> rOffsets(n + 1, 0);
  for (const ChannelId t : g.targets) ++rOffsets[t + 1];
  for (std::size_t v = 0; v < n; ++v) rOffsets[v + 1] += rOffsets[v];
  std::vector<ChannelId> rSources(g.targets.size());
  {
    std::vector<std::uint32_t> cursor(rOffsets.begin(), rOffsets.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        rSources[cursor[g.targets[e]]++] = static_cast<ChannelId>(v);
      }
    }
  }
  std::vector<ChannelId> worklist;
  std::uint32_t live = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!g.member[v]) continue;
    ++live;
    outdeg[v] = g.offsets[v + 1] - g.offsets[v];
    if (outdeg[v] == 0) worklist.push_back(static_cast<ChannelId>(v));
  }
  std::uint32_t peeled = 0;
  while (!worklist.empty()) {
    const ChannelId v = worklist.back();
    worklist.pop_back();
    ++peeled;
    for (std::uint32_t e = rOffsets[v]; e < rOffsets[v + 1]; ++e) {
      const ChannelId p = rSources[e];
      if (--outdeg[p] == 0) worklist.push_back(p);
    }
  }
  inCore.assign(n, 0);
  if (peeled == live) return 0;
  for (std::size_t v = 0; v < n; ++v) {
    inCore[v] = g.member[v] && outdeg[v] > 0;
  }
  return live - peeled;
}

/// Walks successor edges inside the residual core until a vertex repeats;
/// the suffix from its first visit is a genuine cycle (every core vertex
/// keeps at least one successor in the core, so the walk never stalls).
std::vector<ChannelId> extractCoreCycle(const PeelGraph& g,
                                        const std::vector<std::uint8_t>& inCore) {
  const std::size_t n = inCore.size();
  ChannelId start = kUnseen;
  for (std::size_t v = 0; v < n; ++v) {
    if (inCore[v]) {
      start = static_cast<ChannelId>(v);
      break;
    }
  }
  if (start == kUnseen) return {};
  std::vector<std::uint32_t> walkIndex(n, kUnseen);
  std::vector<ChannelId> walk;
  ChannelId cur = start;
  while (walkIndex[cur] == kUnseen) {
    walkIndex[cur] = static_cast<std::uint32_t>(walk.size());
    walk.push_back(cur);
    ChannelId next = kUnseen;
    for (std::uint32_t e = g.offsets[cur]; e < g.offsets[cur + 1]; ++e) {
      if (inCore[g.targets[e]]) {
        next = g.targets[e];
        break;
      }
    }
    if (next == kUnseen) return {};  // unreachable for a true residual
    cur = next;
  }
  return {walk.begin() + walkIndex[cur], walk.end()};
}

/// CSR of the permission CDG restricted to alive channels: edge c -> c'
/// when dst(c) may forward a packet from c onto c'.
PeelGraph buildRuleGraph(const TurnPermissions& perms,
                         std::span<const std::uint8_t> alive) {
  const Topology& topo = perms.topology();
  const std::uint32_t channels = topo.channelCount();
  PeelGraph g;
  g.member.assign(channels, 0);
  g.offsets.assign(channels + 1, 0);
  for (ChannelId c = 0; c < channels; ++c) {
    if (!aliveChannel(alive, c)) continue;
    g.member[c] = 1;
    const topo::NodeId via = topo.channelDst(c);
    for (const ChannelId out : topo.outputChannels(via)) {
      if (aliveChannel(alive, out) && perms.allowed(via, c, out)) {
        ++g.offsets[c + 1];
      }
    }
  }
  for (ChannelId c = 0; c < channels; ++c) g.offsets[c + 1] += g.offsets[c];
  g.targets.resize(g.offsets[channels]);
  {
    std::vector<std::uint32_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
    for (ChannelId c = 0; c < channels; ++c) {
      if (!g.member[c]) continue;
      const topo::NodeId via = topo.channelDst(c);
      for (const ChannelId out : topo.outputChannels(via)) {
        if (aliveChannel(alive, out) && perms.allowed(via, c, out)) {
          g.targets[cursor[c]++] = out;
        }
      }
    }
  }
  return g;
}

/// CSR of the occupancy graph: hold and request edges over the channels
/// they touch.  Edges touching dead channels are dropped (their worms were
/// quarantined) and vertices never touched stay out of the peel universe.
PeelGraph buildStateGraph(std::uint32_t channels,
                          std::span<const std::uint8_t> alive,
                          std::span<const OccupancyEdge> holds,
                          std::span<const OccupancyEdge> requests) {
  PeelGraph g;
  g.member.assign(channels, 0);
  g.offsets.assign(channels + 1, 0);
  const auto keep = [&](const OccupancyEdge& e) {
    return e.from < channels && e.to < channels &&
           aliveChannel(alive, e.from) && aliveChannel(alive, e.to);
  };
  for (const auto edges : {holds, requests}) {
    for (const OccupancyEdge& e : edges) {
      if (!keep(e)) continue;
      g.member[e.from] = 1;
      g.member[e.to] = 1;
      ++g.offsets[e.from + 1];
    }
  }
  for (ChannelId c = 0; c < channels; ++c) g.offsets[c + 1] += g.offsets[c];
  g.targets.resize(g.offsets[channels]);
  {
    std::vector<std::uint32_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
    for (const auto edges : {holds, requests}) {
      for (const OccupancyEdge& e : edges) {
        if (keep(e)) g.targets[cursor[e.from]++] = e.to;
      }
    }
  }
  return g;
}

/// Candidate-row audit: every first/next row must contain exactly the
/// outputs the turn rule and the steps law admit.  Counts discrepancies in
/// either direction (illegal entry present, legal entry omitted).
std::uint64_t auditCandidates(const routing::RoutingTable& table,
                              const TurnPermissions& perms,
                              std::span<const std::uint8_t> alive) {
  const Topology& topo = perms.topology();
  const NodeId n = topo.nodeCount();
  const std::uint32_t channels = topo.channelCount();
  std::uint64_t violations = 0;
  std::vector<ChannelId> expected;
  const auto mismatch = [&](const routing::Candidates& got) {
    if (got.size() != expected.size()) return true;
    return !std::equal(got.begin(), got.end(), expected.begin());
  };
  for (NodeId dst = 0; dst < n; ++dst) {
    for (NodeId src = 0; src < n; ++src) {
      expected.clear();
      if (src != dst) {
        // Injection has no in-channel constraint: every alive output that
        // starts a minimal legal path is a candidate.
        std::uint16_t best = kNoPath;
        for (const ChannelId o : topo.outputChannels(src)) {
          if (!aliveChannel(alive, o)) continue;
          best = std::min(best, table.channelSteps(dst, o));
        }
        if (best != kNoPath) {
          for (const ChannelId o : topo.outputChannels(src)) {
            if (aliveChannel(alive, o) && table.channelSteps(dst, o) == best) {
              expected.push_back(o);
            }
          }
          if (table.distance(src, dst) != best) ++violations;
        } else if (table.distance(src, dst) != kNoPath) {
          ++violations;
        }
      }
      if (mismatch(table.firstChannels(src, dst))) ++violations;
    }
    for (ChannelId c = 0; c < channels; ++c) {
      expected.clear();
      const std::uint16_t steps = table.channelSteps(dst, c);
      const NodeId via = topo.channelDst(c);
      if (aliveChannel(alive, c) && steps != kNoPath && steps > 1 &&
          via != dst) {
        for (const ChannelId o : topo.outputChannels(via)) {
          if (aliveChannel(alive, o) && perms.allowed(via, c, o) &&
              table.channelSteps(dst, o) + 1 == steps) {
            expected.push_back(o);
          }
        }
      }
      if (mismatch(table.nextChannels(c, dst))) ++violations;
    }
  }
  return violations;
}

/// Forward BFS over the channel graph from every source; the table builds
/// its distances by reverse BFS per destination, so agreement here is an
/// independent derivation, not a replay.
std::uint64_t auditDistances(const routing::RoutingTable& table,
                             const TurnPermissions& perms,
                             std::span<const std::uint8_t> alive) {
  const Topology& topo = perms.topology();
  const NodeId n = topo.nodeCount();
  const std::uint32_t channels = topo.channelCount();
  std::uint64_t mismatches = 0;
  std::vector<std::uint16_t> depth(channels);
  std::vector<std::uint16_t> nodeDist(n);
  std::vector<ChannelId> queue;
  for (NodeId src = 0; src < n; ++src) {
    std::fill(depth.begin(), depth.end(), kNoPath);
    std::fill(nodeDist.begin(), nodeDist.end(), kNoPath);
    nodeDist[src] = 0;
    queue.clear();
    for (const ChannelId o : topo.outputChannels(src)) {
      if (!aliveChannel(alive, o)) continue;
      depth[o] = 1;
      queue.push_back(o);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const ChannelId c = queue[head];
      const NodeId via = topo.channelDst(c);
      nodeDist[via] = std::min(nodeDist[via], depth[c]);
      for (const ChannelId o : topo.outputChannels(via)) {
        if (depth[o] != kNoPath) continue;
        if (!aliveChannel(alive, o)) continue;
        if (!perms.allowed(via, c, o)) continue;
        depth[o] = static_cast<std::uint16_t>(depth[c] + 1);
        queue.push_back(o);
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      if (table.distance(src, dst) != nodeDist[dst]) ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

OracleReport runOracle(const OracleInput& input) {
  OracleReport report;
  const TurnPermissions& perms = *input.perms;
  const std::uint32_t channels = perms.topology().channelCount();

  // Layer 1: rule check.
  const PeelGraph rule = buildRuleGraph(perms, input.channelAlive);
  report.ruleEdges = rule.targets.size();
  for (ChannelId c = 0; c < channels; ++c) report.aliveChannels += rule.member[c];
  std::vector<std::uint8_t> core;
  report.ruleResidual = peelResidual(rule, core);
  report.ruleDeadlockFree = report.ruleResidual == 0;
  if (!report.ruleDeadlockFree) report.ruleCycle = extractCoreCycle(rule, core);

  // Layer 2: state check.
  if (!input.holdEdges.empty() || !input.requestEdges.empty()) {
    const PeelGraph state = buildStateGraph(channels, input.channelAlive,
                                            input.holdEdges, input.requestEdges);
    report.stateResidual = peelResidual(state, core);
    report.stateDrains = report.stateResidual == 0;
    if (!report.stateDrains) report.stateCycle = extractCoreCycle(state, core);
    const Topology& topo = perms.topology();
    for (const OccupancyEdge& e : input.holdEdges) {
      if (e.from >= channels || e.to >= channels) continue;
      const NodeId via = topo.channelDst(e.from);
      if (topo.channelSrc(e.to) != via || !perms.allowed(via, e.from, e.to)) {
        ++report.crossEpochHolds;
      }
    }
  }

  // Layer 3: table cross-check.
  if (input.table != nullptr) {
    report.candidateViolations =
        auditCandidates(*input.table, perms, input.channelAlive);
    if (input.deepDistanceCheck) {
      report.distanceMismatches =
          auditDistances(*input.table, perms, input.channelAlive);
    }
    report.tableConsistent =
        report.candidateViolations == 0 && report.distanceMismatches == 0;
  }
  return report;
}

std::string OracleReport::describe() const {
  if (ok()) return "ok";
  std::string out = "VIOLATION:";
  if (!ruleDeadlockFree) {
    out += " rule residual=" + std::to_string(ruleResidual) +
           " cycle=" + std::to_string(ruleCycle.size());
  }
  if (!stateDrains) {
    out += " state residual=" + std::to_string(stateResidual) +
           " cycle=" + std::to_string(stateCycle.size());
  }
  if (!tableConsistent) {
    out += " table candidates=" + std::to_string(candidateViolations) +
           " distances=" + std::to_string(distanceMismatches);
  }
  return out;
}

}  // namespace downup::verify
