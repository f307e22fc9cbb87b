#include "fault/reconfigure.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "core/downup_routing.hpp"
#include "routing/verify.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/rng.hpp"

namespace downup::fault {

using routing::ChannelId;
using routing::Dir;
using routing::DirectionMap;
using routing::kDirCount;
using routing::NodeId;
using routing::RoutingTable;
using routing::TurnPermissions;
using topo::LinkId;
using topo::Topology;

namespace {

constexpr std::uint32_t kNoComp = static_cast<std::uint32_t>(-1);

/// One alive component: its compacted sub-topology and the DOWN/UP turn
/// rule built on it.  The sub topology sits behind a unique_ptr because the
/// rule holds a raw pointer into it.
struct Component {
  std::vector<NodeId> nodeToHost;  // ascending: fixes the tree's sub ids
  std::vector<ChannelId> channelToHost;
  std::unique_ptr<Topology> sub;
  std::unique_ptr<TurnPermissions> rule;
};

/// A dead endpoint kills the link regardless of its own state.
std::vector<std::uint8_t> effectiveLinks(const Topology& topo,
                                         std::span<const std::uint8_t> linkAlive,
                                         std::span<const std::uint8_t> nodeAlive,
                                         std::uint32_t& aliveLinks) {
  const LinkId linkCount = topo.linkCount();
  std::vector<std::uint8_t> effLink(linkCount, 0);
  aliveLinks = 0;
  for (LinkId l = 0; l < linkCount; ++l) {
    const auto [a, b] = topo.linkEnds(l);
    effLink[l] = linkAlive[l] && nodeAlive[a] && nodeAlive[b];
    aliveLinks += effLink[l];
  }
  return effLink;
}

struct ComponentLabels {
  std::vector<std::uint32_t> comp;  // kNoComp for dead nodes
  std::uint32_t count = 0;
  std::uint32_t aliveNodes = 0;
  std::uint64_t sameComponentPairs = 0;
};

/// Labels alive components (DFS over alive nodes through alive links).
ComponentLabels labelComponents(const Topology& topo,
                                std::span<const std::uint8_t> effLink,
                                std::span<const std::uint8_t> nodeAlive) {
  const NodeId n = topo.nodeCount();
  ComponentLabels labels;
  labels.comp.assign(n, kNoComp);
  std::vector<NodeId> stack;
  for (NodeId v = 0; v < n; ++v) {
    if (!nodeAlive[v] || labels.comp[v] != kNoComp) continue;
    std::uint64_t size = 0;
    labels.comp[v] = labels.count;
    stack.push_back(v);
    ++size;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      const auto neighbors = topo.neighbors(u);
      const auto channels = topo.outputChannels(u);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (!effLink[Topology::linkOf(channels[i])]) continue;
        const NodeId w = neighbors[i];
        if (labels.comp[w] != kNoComp) continue;
        labels.comp[w] = labels.count;
        stack.push_back(w);
        ++size;
      }
    }
    ++labels.count;
    labels.aliveNodes += static_cast<std::uint32_t>(size);
    labels.sameComponentPairs += size * (size - 1);
  }
  return labels;
}

/// The epoch check shared by both rebuild paths: the rule's dependency
/// graph restricted to alive channels, and the table's stored pair totals.
/// Ordered alive pairs in different components are unreachable by design;
/// any other unreachable pair means some component is not connected under
/// its turn rule.
void verifyEpoch(ReconfigOutcome& out, const ComponentLabels& labels,
                 std::span<const std::uint64_t> alive,
                 std::span<const std::uint8_t> nodeAlive) {
  const routing::VerifyReport report =
      routing::verifyRouting(*out.perms, *out.table, alive, nodeAlive);
  const std::uint64_t crossComponentPairs =
      static_cast<std::uint64_t>(out.aliveNodes) * (out.aliveNodes - 1) -
      labels.sameComponentPairs;
  out.deadlockFree = report.deadlockFree;
  out.unreachablePairs = report.unreachablePairs;
  out.componentsConnected = report.unreachablePairs == crossComponentPairs;
  out.averagePathLength = report.averagePathLength;
}

}  // namespace

ReconfigOutcome Reconfigurator::rebuild(
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive) const {
  const Topology& topo = *topo_;
  const NodeId n = topo.nodeCount();
  const LinkId linkCount = topo.linkCount();

  ReconfigOutcome out;
  util::ScopedSpan partitionSpan(spans_, "partition");
  const std::vector<std::uint8_t> effLink =
      effectiveLinks(topo, linkAlive, nodeAlive, out.aliveLinks);
  const ComponentLabels labels = labelComponents(topo, effLink, nodeAlive);
  out.components = labels.count;
  out.aliveNodes = labels.aliveNodes;
  out.rebuiltDestinations = labels.aliveNodes;

  // Collect members per component in ascending host order, so sub node ids
  // ascend with host ids: the M1 tree is built on the sub ids, and this
  // fixes which tree (and so which turn rule) a component gets.
  std::vector<std::vector<NodeId>> members(out.components);
  for (NodeId v = 0; v < n; ++v) {
    if (labels.comp[v] != kNoComp) members[labels.comp[v]].push_back(v);
  }
  const std::vector<std::uint64_t> alive =
      channelAliveWords(linkAlive, nodeAlive);
  partitionSpan.arg("components", labels.count);
  partitionSpan.arg("aliveNodes", labels.aliveNodes);
  partitionSpan.close();

  // Give every component with at least two switches its own compacted
  // topology, coordinated tree (M1 is deterministic; the RNG is never
  // consulted) and DOWN/UP rule with the repair and release passes.
  std::vector<Component> parts;
  std::vector<NodeId> hostToSub(n, topo::kInvalidNode);
  for (const auto& m : members) {
    if (m.size() < 2) continue;
    Component part;
    part.nodeToHost = m;
    util::ScopedSpan subtopoSpan(spans_, "subtopo");
    subtopoSpan.arg("nodes", m.size());
    for (NodeId i = 0; i < m.size(); ++i) hostToSub[m[i]] = i;
    part.sub = std::make_unique<Topology>(static_cast<NodeId>(m.size()));
    for (LinkId l = 0; l < linkCount; ++l) {
      if (!effLink[l]) continue;
      const auto [a, b] = topo.linkEnds(l);
      if (labels.comp[a] != labels.comp[m[0]]) continue;
      // addLink preserves endpoint order, so sub channel 2k+p is host
      // channel 2l+p: the channel map preserves parity.
      part.sub->addLink(hostToSub[a], hostToSub[b]);
      part.channelToHost.push_back(2 * l);
      part.channelToHost.push_back(2 * l + 1);
    }
    subtopoSpan.close();
    util::Rng rng(0);
    util::ScopedSpan treeSpan(spans_, "tree");
    const auto ct = tree::CoordinatedTree::build(
        *part.sub, tree::TreePolicy::kM1SmallestFirst, rng);
    treeSpan.close();
    part.rule = std::make_unique<TurnPermissions>(
        core::buildDownUpRule(*part.sub, ct, {.spans = spans_}));
    parts.push_back(std::move(part));
  }

  // Merge the per-component rules into host numbering.  Dead channels keep
  // an arbitrary direction; the alive mask keeps them out of the table.
  util::ScopedSpan mergeSpan(spans_, "merge");
  mergeSpan.arg("parts", parts.size());
  DirectionMap hostDirs(topo.channelCount(), Dir::kRdTree);
  for (const Component& part : parts) {
    for (ChannelId c = 0; c < part.channelToHost.size(); ++c) {
      hostDirs[part.channelToHost[c]] = part.rule->dir(c);
    }
  }
  out.perms = std::make_unique<TurnPermissions>(topo, std::move(hostDirs),
                                                core::downUpTurnSet());
  for (const Component& part : parts) {
    const TurnPermissions& sub = *part.rule;
    for (NodeId v = 0; v < part.nodeToHost.size(); ++v) {
      for (std::size_t i = 0; i < kDirCount; ++i) {
        for (std::size_t j = 0; j < kDirCount; ++j) {
          const Dir d1 = static_cast<Dir>(i);
          const Dir d2 = static_cast<Dir>(j);
          if (sub.isReleasedAt(v, d1, d2)) {
            out.perms->releaseAt(part.nodeToHost[v], d1, d2);
          }
          if (sub.isBlockedAt(v, d1, d2)) {
            out.perms->blockAt(part.nodeToHost[v], d1, d2);
          }
        }
      }
    }
  }
  mergeSpan.close();

  // The epoch's only table.  Components share no alive channel, so a pair
  // in different components comes out unreachable, and one masked
  // dependency check equals the union of per-component checks (the dead
  // channels' arbitrary directions stay out of it).  An acyclic rule
  // covers this alive set.
  out.table = std::make_unique<RoutingTable>(
      RoutingTable::build(*out.perms, pool_, alive, spans_));
  {
    util::ScopedSpan verifySpan(spans_, "verify");
    verifyEpoch(out, labels, alive, nodeAlive);
    if (out.deadlockFree) out.perms->setCover(alive);
  }
  return out;
}

std::vector<std::uint64_t> Reconfigurator::channelAliveWords(
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive) const {
  const Topology& topo = *topo_;
  std::vector<std::uint64_t> words((topo.channelCount() + 63) / 64, 0);
  for (LinkId l = 0; l < topo.linkCount(); ++l) {
    const auto [a, b] = topo.linkEnds(l);
    if (!(linkAlive[l] && nodeAlive[a] && nodeAlive[b])) continue;
    for (const ChannelId c : {2 * l, 2 * l + 1}) {
      words[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
  }
  return words;
}

bool Reconfigurator::incrementalApplies(
    const RoutingTable& prevTable,
    std::span<const std::uint64_t> alive) const {
  const TurnPermissions& rule = prevTable.permissions();
  const RoutingTable::ChannelChanges changes =
      prevTable.changedChannels(alive);
  if (!changes.dead.empty() && !changes.revived.empty()) return false;
  // A revival outside the rule's cover needs a rule checked with it.
  for (const ChannelId c : changes.revived) {
    if (!rule.covers(c)) return false;
  }
  // Losing a DOWN/UP tree channel has never left every pair routable under
  // the old tree (tests/fault/incremental_test.cpp pins it), so the
  // attempt would only delay the full rebuild.
  if (rule.global() == core::downUpTurnSet()) {
    for (const ChannelId c : changes.dead) {
      if (rule.dir(c) == Dir::kLuTree || rule.dir(c) == Dir::kRdTree) {
        return false;
      }
    }
  }
  return true;
}

double Reconfigurator::incrementalDirtyFraction(
    const routing::RoutingTable& prevTable,
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive) const {
  const NodeId n = topo_->nodeCount();
  if (n == 0) return 1.0;
  const std::vector<std::uint64_t> alive =
      channelAliveWords(linkAlive, nodeAlive);
  if (!incrementalApplies(prevTable, alive)) return 1.0;
  const std::uint32_t dirty = prevTable.dirtyDestinationCount(alive);
  // Never report zero work: even an empty dirty set pays the delta scan.
  return std::max(1.0 / static_cast<double>(n),
                  static_cast<double>(dirty) / static_cast<double>(n));
}

ReconfigOutcome Reconfigurator::rebuildIncremental(
    const routing::RoutingTable& prevTable,
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive) const {
  const Topology& topo = *topo_;
  const std::vector<std::uint64_t> alive =
      channelAliveWords(linkAlive, nodeAlive);
  {
    util::ScopedSpan applicabilitySpan(spans_, "dirty_set");
    if (!incrementalApplies(prevTable, alive)) {
      applicabilitySpan.arg("fallback", 1);
      applicabilitySpan.close();
      return rebuild(linkAlive, nodeAlive);
    }
  }

  ReconfigOutcome out;
  out.incremental = true;
  util::ScopedSpan partitionSpan(spans_, "partition");
  const std::vector<std::uint8_t> effLink =
      effectiveLinks(topo, linkAlive, nodeAlive, out.aliveLinks);
  const ComponentLabels labels = labelComponents(topo, effLink, nodeAlive);
  out.components = labels.count;
  out.aliveNodes = labels.aliveNodes;
  partitionSpan.arg("components", labels.count);
  partitionSpan.arg("aliveNodes", labels.aliveNodes);
  partitionSpan.close();

  // Unreachability under the inherited rule.  Cross-component pairs are
  // unreachable by design; a within-component unreachable pair means the
  // old tree cannot serve the degraded graph (e.g. the failure cut the
  // region the turn rule funnels traffic through) — re-rooting may fix
  // that, so fall back to the full rebuild.  Only a dirty destination can
  // lose a source (clean rows keep or shorten every distance), so each is
  // checked as soon as its BFS batch ends and the first miss abandons the
  // incremental attempt before the remaining batches and the verify step.
  const NodeId n = topo.nodeCount();
  const auto reachedByComponent = [&labels, n](const RoutingTable& table,
                                               NodeId dst) {
    const std::uint32_t comp = labels.comp[dst];
    if (comp == kNoComp) return true;
    for (NodeId s = 0; s < n; ++s) {
      if (s != dst && labels.comp[s] == comp &&
          table.distance(s, dst) == routing::kNoPath) {
        return false;
      }
    }
    return true;
  };
  std::vector<NodeId> dirty;
  std::optional<RoutingTable> table = RoutingTable::rebuildDead(
      prevTable, pool_, alive, &dirty, spans_, reachedByComponent);
  if (!table) return rebuild(linkAlive, nodeAlive);
  out.perms = std::make_unique<TurnPermissions>(prevTable.permissions());
  out.table = std::make_unique<RoutingTable>(std::move(*table));
  out.table->rebindPermissions(*out.perms);
  out.rebuiltDestinations = static_cast<std::uint32_t>(dirty.size());

  // The alive set lies inside the inherited rule's cover (or lost channels
  // only), so the epoch is deadlock-free by construction; the masked check
  // re-verifies it.  A rule with no recorded cover now covers the alive set
  // it was just checked on.  The pair totals re-check every alive pair
  // (clean destinations included) against the component labels.
  {
    util::ScopedSpan verifySpan(spans_, "verify");
    verifyEpoch(out, labels, alive, nodeAlive);
    if (out.deadlockFree && out.perms->cover().empty()) {
      out.perms->setCover(alive);
    }
  }
  if (!out.componentsConnected || !out.deadlockFree) {
    return rebuild(linkAlive, nodeAlive);
  }
  return out;
}

}  // namespace downup::fault
