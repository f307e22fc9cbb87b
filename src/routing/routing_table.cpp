#include "routing/routing_table.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

#include "routing/audit.hpp"
#include "util/thread_pool.hpp"

namespace downup::routing {

namespace {

inline bool aliveBit(std::span<const std::uint64_t> mask, ChannelId c) noexcept {
  return mask.empty() || ((mask[c >> 6] >> (c & 63)) & 1u);
}

/// Workers parallelFor runs on; 1 means serially on the calling thread.
inline std::size_t threadsOf(const util::ThreadPool* pool) noexcept {
  return pool == nullptr ? 1 : pool->threadCount();
}

/// Destinations one BFS sweep serves: one lane per bit of a uint64_t.
constexpr std::size_t kLanes = 64;

/// Legal predecessors of every channel, CSR-packed: of(c) lists the alive
/// input channels e of src(c) whose turn onto c is allowed, in
/// outputChannels(src(c)) order.  Dead channels have none.  Built once per
/// build()/rebuildDead() call and dropped with it; the table never stores
/// it.
class Predecessors {
 public:
  Predecessors(const TurnPermissions& perms,
               std::span<const std::uint64_t> channelAlive) {
    const Topology& topo = perms.topology();
    const ChannelId channels = topo.channelCount();
    offsets_.reserve(channels + 1);
    offsets_.push_back(0);
    for (ChannelId c = 0; c < channels; ++c) {
      if (aliveBit(channelAlive, c)) {
        const NodeId via = topo.channelSrc(c);
        for (const ChannelId out : topo.outputChannels(via)) {
          const ChannelId in = Topology::reverseChannel(out);
          if (aliveBit(channelAlive, in) && perms.allowed(via, in, c)) {
            preds_.push_back(in);
          }
        }
      }
      offsets_.push_back(static_cast<std::uint32_t>(preds_.size()));
    }
  }

  std::span<const ChannelId> of(ChannelId c) const noexcept {
    return {preds_.data() + offsets_[c], preds_.data() + offsets_[c + 1]};
  }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<ChannelId> preds_;
};

/// Per-thread sweep state.  Bit i of a channel's word belongs to the batch's
/// i-th destination: seen (steps already final), frontier (reached at the
/// current level) and next (reached at the following level).  `active`
/// lists the channels whose frontier word is non-zero, `touched` those
/// whose next word is; settling the next level turns `touched` into the
/// new `active`.  `nodeSeen` holds, per node, the lanes whose distance from
/// that node is already final (the destination itself counts as seen).
struct LaneScratch {
  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> frontier;
  std::vector<std::uint64_t> next;
  std::vector<std::uint64_t> nodeSeen;
  std::vector<ChannelId> active;
  std::vector<ChannelId> touched;
};

/// Reachable-source count and hop sum of each lane's row.
struct LaneTotals {
  std::array<std::uint32_t, kLanes> reach{};
  std::array<std::uint64_t, kLanes> hopSum{};

  /// The lanes in `fresh` reach, at `level`, a node whose already-reached
  /// lanes are `seen`; levels ascend, so that is its distance for the rest.
  void settle(std::uint64_t fresh, std::uint64_t& seen,
              std::uint16_t level) noexcept {
    fresh &= ~seen;
    seen |= fresh;
    for (; fresh != 0; fresh &= fresh - 1) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(fresh));
      ++reach[lane];
      hopSum[lane] += level;
    }
  }
};

/// Reverse BFS from up to kLanes destinations at once over the channel
/// graph, writing each destination's whole steps row and its totals.
/// Lanes only ever OR their own bit, so every row equals the one a BFS
/// from its destination alone would produce; rows of distinct destinations
/// are disjoint.
void bfsBatch(const Topology& topo, const Predecessors& preds,
              std::span<const std::uint64_t> channelAlive,
              std::span<const NodeId> dsts, std::uint16_t* steps,
              std::uint32_t* reach, std::uint64_t* hopSum, LaneScratch& s) {
  assert(dsts.size() <= kLanes);
  const std::size_t channels = topo.channelCount();
  s.seen.assign(channels, 0);
  s.next.assign(channels, 0);
  s.nodeSeen.assign(topo.nodeCount(), 0);
  s.frontier.resize(channels);
  s.active.clear();
  LaneTotals totals;

  // Seeds: the alive input channels of each destination, one step away.
  std::array<std::uint16_t*, kLanes> rows;
  for (std::size_t lane = 0; lane < dsts.size(); ++lane) {
    const std::uint64_t bit = std::uint64_t{1} << lane;
    s.nodeSeen[dsts[lane]] |= bit;
    std::uint16_t* row = rows[lane] =
        steps + static_cast<std::size_t>(dsts[lane]) * channels;
    std::fill(row, row + channels, kNoPath);
    for (const ChannelId out : topo.outputChannels(dsts[lane])) {
      const ChannelId c = Topology::reverseChannel(out);
      if (!aliveBit(channelAlive, c)) continue;
      row[c] = 1;
      if (s.seen[c] == 0) s.active.push_back(c);
      s.seen[c] |= bit;
      totals.settle(bit, s.nodeSeen[topo.channelSrc(c)], 1);
    }
  }
  for (const ChannelId c : s.active) s.frontier[c] = s.seen[c];

  // Level expansion: push each frontier word into the predecessors' next
  // words (lanes that already reached a predecessor drop out), then settle
  // the lanes that are new at each touched channel.
  for (std::uint16_t level = 2; !s.active.empty(); ++level) {
    s.touched.clear();
    for (const ChannelId c : s.active) {
      const std::uint64_t reach = s.frontier[c];
      for (const ChannelId e : preds.of(c)) {
        const std::uint64_t fresh = reach & ~s.seen[e];
        if (fresh == 0) continue;
        if (s.next[e] == 0) s.touched.push_back(e);
        s.next[e] |= fresh;
      }
    }
    for (const ChannelId e : s.touched) {
      const std::uint64_t fresh = s.next[e];
      s.next[e] = 0;
      s.seen[e] |= fresh;
      s.frontier[e] = fresh;
      for (std::uint64_t lanes = fresh; lanes != 0; lanes &= lanes - 1) {
        const auto lane = static_cast<std::size_t>(std::countr_zero(lanes));
        rows[lane][e] = level;
      }
      totals.settle(fresh, s.nodeSeen[topo.channelSrc(e)], level);
    }
    std::swap(s.active, s.touched);
  }
  for (std::size_t lane = 0; lane < dsts.size(); ++lane) {
    reach[dsts[lane]] = totals.reach[lane];
    hopSum[dsts[lane]] = totals.hopSum[lane];
  }
}

/// distance(u, d) read off row d: the best step count over u's outputs.
std::uint16_t distanceIn(const Topology& topo, const std::uint16_t* row,
                         NodeId u) noexcept {
  std::uint16_t best = kNoPath;
  for (const ChannelId c : topo.outputChannels(u)) best = std::min(best, row[c]);
  return best;
}

}  // namespace

bool RoutingTable::computeRows(std::span<const NodeId> dsts,
                               util::ThreadPool* pool,
                               std::span<const std::uint64_t> channelAlive,
                               const DestinationCheck& check) {
  const Predecessors preds(*perms_, channelAlive);
  const std::size_t batches = (dsts.size() + kLanes - 1) / kLanes;
  std::atomic<bool> rejected{false};
  // Batches write disjoint rows, so they fan out directly.  The sweep
  // scratch is per OS thread and grows once to channelCount_ words per
  // array; only the predecessor lists are allocated per call.
  util::parallelFor(pool, batches, [&](std::size_t b) {
    if (rejected.load(std::memory_order_relaxed)) return;
    const std::span<const NodeId> batch =
        dsts.subspan(b * kLanes, std::min(kLanes, dsts.size() - b * kLanes));
    thread_local LaneScratch scratch;
    bfsBatch(*topo_, preds, channelAlive, batch, steps_.data(), reach_.data(),
             hopSum_.data(), scratch);
    if (!check) return;
    for (const NodeId dst : batch) {
      if (!check(*this, dst)) {
        rejected.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  return !rejected.load();
}

RoutingTable::RoutingTable(const TurnPermissions& perms)
    : perms_(&perms),
      topo_(&perms.topology()),
      channelCount_(perms.topology().channelCount()),
      nodeCount_(perms.topology().nodeCount()),
      reach_(nodeCount_, 0),
      hopSum_(nodeCount_, 0) {
  for (NodeId v = 0; v < nodeCount_; ++v) {
    if (topo_->degree(v) > kMaxCandidates) {
      throw std::invalid_argument(
          "RoutingTable: node " + std::to_string(v) + " has degree " +
          std::to_string(topo_->degree(v)) + ", above the limit of " +
          std::to_string(kMaxCandidates) + " (kMaxCandidates)");
    }
  }
}

RoutingTable RoutingTable::build(const TurnPermissions& perms,
                                 util::ThreadPool* pool,
                                 std::span<const std::uint64_t> channelAlive,
                                 util::SpanRecorder* spans) {
  const NodeId n = perms.topology().nodeCount();
  util::ScopedSpan buildSpan(spans, "table_build");
  buildSpan.arg("destinations", n);
  buildSpan.arg("threads", threadsOf(pool));
  buildSpan.arg("parallel", threadsOf(pool) > 1 ? 1 : 0);

  RoutingTable table(perms);
  table.steps_.resize(static_cast<std::size_t>(n) * table.channelCount_);
  std::vector<NodeId> dsts(n);
  std::iota(dsts.begin(), dsts.end(), NodeId{0});
  {
    util::ScopedSpan bfsSpan(spans, "bfs");
    bfsSpan.arg("batches", (n + kLanes - 1) / kLanes);
    table.computeRows(dsts, pool, channelAlive, {});
  }
  invokeTableAuditHook(perms, table, channelAlive);
  return table;
}

struct RoutingTable::Delta : ChannelChanges {
  ChannelId uncovered = topo::kInvalidChannel;  // a revival outside the cover
  std::vector<std::uint8_t> dirty;              // per destination
  // Per revived channel: its alive legal successors that did not revive,
  // the indices of those that did, and its alive legal predecessors that
  // did not revive.
  std::vector<std::vector<ChannelId>> successors;
  std::vector<std::vector<std::uint32_t>> revivedSuccessors;
  std::vector<std::vector<ChannelId>> predecessors;

  bool incremental() const noexcept {
    return uncovered == topo::kInvalidChannel &&
           (dead.empty() || revived.empty());
  }

  /// steps(d, revived[i]) in the new table, read off the old row d: one
  /// hop onto the best successor, revived successors included (a
  /// Bellman-Ford pass over the revived channels, which are few).
  void revivedSteps(const Topology& topo, const std::uint16_t* row, NodeId d,
                    std::vector<std::uint16_t>& s) const {
    s.assign(revived.size(), kNoPath);
    for (std::size_t i = 0; i < revived.size(); ++i) {
      if (topo.channelDst(revived[i]) == d) {
        s[i] = 1;
        continue;
      }
      std::uint16_t best = kNoPath;
      for (const ChannelId o : successors[i]) best = std::min(best, row[o]);
      if (best != kNoPath) s[i] = static_cast<std::uint16_t>(best + 1);
    }
    for (std::size_t round = 0; round < revived.size(); ++round) {
      bool changed = false;
      for (std::size_t i = 0; i < revived.size(); ++i) {
        for (const std::uint32_t j : revivedSuccessors[i]) {
          if (s[j] != kNoPath && s[j] + 1 < s[i]) {
            s[i] = static_cast<std::uint16_t>(s[j] + 1);
            changed = true;
          }
        }
      }
      if (!changed) break;
    }
  }
};

RoutingTable::ChannelChanges RoutingTable::changedChannels(
    std::span<const std::uint64_t> channelAlive) const {
  // A channel was alive in this table iff it seeds its own destination's
  // BFS (steps == 1 in the row of its dst node); dead channels are kNoPath
  // everywhere, including there.
  ChannelChanges changes;
  for (ChannelId c = 0; c < channelCount_; ++c) {
    const bool alivePrev = channelSteps(topo_->channelDst(c), c) == 1;
    const bool aliveNow = aliveBit(channelAlive, c);
    if (aliveNow && !alivePrev) changes.revived.push_back(c);
    if (alivePrev && !aliveNow) changes.dead.push_back(c);
  }
  return changes;
}

RoutingTable::Delta RoutingTable::computeDelta(
    std::span<const std::uint64_t> channelAlive) const {
  const Topology& topo = *topo_;
  const NodeId n = nodeCount_;
  Delta delta;
  static_cast<ChannelChanges&>(delta) = changedChannels(channelAlive);
  for (const ChannelId c : delta.revived) {
    if (!perms_->covers(c)) {
      delta.uncovered = c;
      break;
    }
  }
  if (!delta.incremental()) return delta;
  delta.dirty.assign(n, 0);

  // Destination d is dirty iff some newly dead channel c lies on a minimal
  // path of d: it starts one from src(c) (its steps match the best over
  // src(c)'s outputs), or it continues some in-channel e of src(c)
  // (steps(d, e) == steps(d, c) + 1, e != reverse(c) — the any-turn
  // continuation test, a superset of the turn-legal one).  For a clean
  // destination no minimal path from any channel crosses c, so no step
  // value besides c's own can change.
  for (NodeId d = 0; d < n && !delta.dead.empty(); ++d) {
    const std::uint16_t* steps = row(d);
    for (const ChannelId c : delta.dead) {
      const std::uint16_t stepsC = steps[c];
      if (stepsC == kNoPath) continue;
      const NodeId src = topo.channelSrc(c);
      bool hit = src != d && stepsC == distanceIn(topo, steps, src);
      if (!hit) {
        for (ChannelId o : topo.outputChannels(src)) {
          if (o == c) continue;  // reverse(o) == reverse(c): the U-turn pair
          if (steps[Topology::reverseChannel(o)] == stepsC + 1) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        delta.dirty[d] = 1;
        break;
      }
    }
  }
  if (delta.revived.empty()) return delta;

  // Revivals only add channels, so a distance can only shrink, and only
  // through a revived channel.  If every alive legal predecessor p of
  // every revived c already has steps(d, p) <= s + 1 (s = c's new steps),
  // the old row plus the patched revived entries satisfies the new
  // graph's shortest-path equations, which have one solution: d is clean.
  const auto revivedIndex = [&delta](ChannelId c) {
    const auto it =
        std::lower_bound(delta.revived.begin(), delta.revived.end(), c);
    return it != delta.revived.end() && *it == c
               ? static_cast<std::uint32_t>(it - delta.revived.begin())
               : static_cast<std::uint32_t>(-1);
  };
  const std::size_t r = delta.revived.size();
  delta.successors.resize(r);
  delta.revivedSuccessors.resize(r);
  delta.predecessors.resize(r);
  for (std::size_t i = 0; i < r; ++i) {
    const ChannelId c = delta.revived[i];
    const NodeId via = topo.channelDst(c);
    for (const ChannelId o : topo.outputChannels(via)) {
      if (!aliveBit(channelAlive, o) || !perms_->allowed(via, c, o)) continue;
      const std::uint32_t j = revivedIndex(o);
      if (j == static_cast<std::uint32_t>(-1)) {
        delta.successors[i].push_back(o);
      } else {
        delta.revivedSuccessors[i].push_back(j);
      }
    }
    const NodeId src = topo.channelSrc(c);
    for (const ChannelId out : topo.outputChannels(src)) {
      const ChannelId p = Topology::reverseChannel(out);
      if (aliveBit(channelAlive, p) &&
          revivedIndex(p) == static_cast<std::uint32_t>(-1) &&
          perms_->allowed(src, p, c)) {
        delta.predecessors[i].push_back(p);
      }
    }
  }
  std::vector<std::uint16_t> s;
  for (NodeId d = 0; d < n; ++d) {
    const std::uint16_t* steps = row(d);
    delta.revivedSteps(topo, steps, d, s);
    for (std::size_t i = 0; i < r && !delta.dirty[d]; ++i) {
      if (s[i] == kNoPath) continue;
      for (const ChannelId p : delta.predecessors[i]) {
        if (steps[p] > s[i] + 1) {
          delta.dirty[d] = 1;
          break;
        }
      }
    }
  }
  return delta;
}

std::uint32_t RoutingTable::dirtyDestinationCount(
    std::span<const std::uint64_t> channelAlive) const {
  const Delta delta = computeDelta(channelAlive);
  if (!delta.incremental()) return nodeCount_;
  std::uint32_t count = 0;
  for (const std::uint8_t bit : delta.dirty) count += bit;
  return count;
}

std::optional<RoutingTable> RoutingTable::rebuildDead(
    const RoutingTable& prev, util::ThreadPool* pool,
    std::span<const std::uint64_t> channelAlive,
    std::vector<NodeId>* dirtyDestinations, util::SpanRecorder* spans,
    const DestinationCheck& check) {
  const NodeId n = prev.nodeCount_;
  const Topology& topo = *prev.topo_;

  util::ScopedSpan buildSpan(spans, "table_build");
  buildSpan.arg("destinations", n);
  buildSpan.arg("threads", threadsOf(pool));
  buildSpan.arg("parallel", threadsOf(pool) > 1 ? 1 : 0);
  buildSpan.arg("incremental", 1);

  std::vector<NodeId> dirtyList;
  util::ScopedSpan deltaSpan(spans, "dirty_delta");
  const Delta delta = prev.computeDelta(channelAlive);
  if (delta.uncovered != topo::kInvalidChannel) {
    throw std::invalid_argument(
        "RoutingTable::rebuildDead: channel " +
        std::to_string(delta.uncovered) +
        " revived outside the rule's cover; it needs a full build");
  }
  if (!delta.incremental()) {
    throw std::invalid_argument(
        "RoutingTable::rebuildDead: the mask kills and revives channels at "
        "once; that needs a full build");
  }
  for (NodeId d = 0; d < n; ++d) {
    if (delta.dirty[d]) dirtyList.push_back(d);
  }
  deltaSpan.arg("dirty", dirtyList.size());
  deltaSpan.arg("deadChannels", delta.dead.size());
  deltaSpan.arg("revivedChannels", delta.revived.size());
  deltaSpan.close();
  if (dirtyDestinations != nullptr) *dirtyDestinations = dirtyList;

  // Clean rows keep prev's steps and totals, with the dead channels pinned
  // to kNoPath or the revived ones patched (a revived channel leaving u
  // may shorten distance(u, d) only); dirty rows are recomputed in
  // batches and checked as soon as their batch is final.
  RoutingTable table(prev);
  std::vector<std::uint16_t> s;
  for (NodeId d = 0; d < n; ++d) {
    if (delta.dirty[d]) continue;
    std::uint16_t* steps =
        &table.steps_[static_cast<std::size_t>(d) * table.channelCount_];
    for (const ChannelId c : delta.dead) steps[c] = kNoPath;
    if (delta.revived.empty()) continue;
    delta.revivedSteps(topo, prev.row(d), d, s);
    for (std::size_t i = 0; i < s.size(); ++i) steps[delta.revived[i]] = s[i];
    for (std::size_t i = 0; i < s.size(); ++i) {
      const NodeId u = topo.channelSrc(delta.revived[i]);
      bool seen = u == d;  // each source once; the destination never
      for (std::size_t j = 0; j < i && !seen; ++j) {
        seen = topo.channelSrc(delta.revived[j]) == u;
      }
      if (seen) continue;
      const std::uint16_t before = distanceIn(topo, prev.row(d), u);
      const std::uint16_t after = distanceIn(topo, steps, u);
      if (after == before) continue;
      if (before == kNoPath) {
        ++table.reach_[d];
        table.hopSum_[d] += after;
      } else {
        table.hopSum_[d] -= before - after;
      }
    }
  }
  util::ScopedSpan bfsSpan(spans, "bfs");
  bfsSpan.arg("dirty", dirtyList.size());
  bfsSpan.arg("batches", (dirtyList.size() + kLanes - 1) / kLanes);
  if (!table.computeRows(dirtyList, pool, channelAlive, check)) {
    bfsSpan.arg("rejected", 1);
    return std::nullopt;
  }
  bfsSpan.close();
  invokeTableAuditHook(*table.perms_, table, channelAlive);
  return table;
}

bool RoutingTable::identicalTo(const RoutingTable& other) const noexcept {
  return nodeCount_ == other.nodeCount_ &&
         channelCount_ == other.channelCount_ && steps_ == other.steps_ &&
         reach_ == other.reach_ && hopSum_ == other.hopSum_;
}

std::uint64_t RoutingTable::fingerprint() const noexcept {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  mix(nodeCount_);
  mix(channelCount_);
  for (const std::uint16_t s : steps_) mix(s);
  return hash;
}

std::uint16_t RoutingTable::distance(NodeId src, NodeId dst) const noexcept {
  return src == dst ? 0 : distanceIn(*topo_, row(dst), src);
}

RoutingTable::PairTotals RoutingTable::pairTotals(
    std::span<const std::uint8_t> nodeAlive) const {
  const auto alive = [nodeAlive](NodeId v) {
    return nodeAlive.empty() || nodeAlive[v] != 0;
  };
  std::uint64_t aliveNodes = 0;
  for (NodeId v = 0; v < nodeCount_; ++v) aliveNodes += alive(v) ? 1 : 0;
  PairTotals totals;
  for (NodeId d = 0; d < nodeCount_; ++d) {
    if (!alive(d)) continue;
    totals.reachablePairs += reach_[d];
    totals.unreachablePairs += aliveNodes - 1 - reach_[d];
    totals.hopSum += hopSum_[d];
  }
  return totals;
}

bool RoutingTable::allPairsConnected() const {
  return pairTotals().unreachablePairs == 0;
}

double RoutingTable::averagePathLength() const {
  return pairTotals().meanHops();
}

}  // namespace downup::routing
