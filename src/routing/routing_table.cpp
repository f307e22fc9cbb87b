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
/// new `active`.
struct LaneScratch {
  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> frontier;
  std::vector<std::uint64_t> next;
  std::vector<ChannelId> active;
  std::vector<ChannelId> touched;
};

/// Reverse BFS from up to kLanes destinations at once over the channel
/// graph, writing each destination's whole steps row.  Lanes only ever OR
/// their own bit, so every row equals the one a BFS from its destination
/// alone would produce; rows of distinct destinations are disjoint.
void bfsBatch(const Topology& topo, const Predecessors& preds,
              std::span<const std::uint64_t> channelAlive,
              std::span<const NodeId> dsts, std::uint16_t* steps,
              LaneScratch& s) {
  assert(dsts.size() <= kLanes);
  const std::size_t channels = topo.channelCount();
  s.seen.assign(channels, 0);
  s.next.assign(channels, 0);
  s.frontier.resize(channels);
  s.active.clear();

  // Seeds: the alive input channels of each destination, one step away.
  std::array<std::uint16_t*, kLanes> rows;
  for (std::size_t lane = 0; lane < dsts.size(); ++lane) {
    std::uint16_t* row = rows[lane] =
        steps + static_cast<std::size_t>(dsts[lane]) * channels;
    std::fill(row, row + channels, kNoPath);
    for (const ChannelId out : topo.outputChannels(dsts[lane])) {
      const ChannelId c = Topology::reverseChannel(out);
      if (!aliveBit(channelAlive, c)) continue;
      row[c] = 1;
      if (s.seen[c] == 0) s.active.push_back(c);
      s.seen[c] |= std::uint64_t{1} << lane;
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
    }
    std::swap(s.active, s.touched);
  }
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
    bfsBatch(*topo_, preds, channelAlive, batch, steps_.data(), scratch);
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
      nodeCount_(perms.topology().nodeCount()) {
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

bool RoutingTable::computeDeadDelta(std::span<const std::uint64_t> channelAlive,
                                    std::vector<ChannelId>& newlyDead,
                                    std::vector<std::uint8_t>& dirty,
                                    ChannelId* revived) const {
  const Topology& topo = *topo_;
  const NodeId n = nodeCount_;

  // A channel was alive in this table iff it seeds its own destination's
  // BFS (steps == 1 in the row of its dst node); dead channels are kNoPath
  // everywhere, including there.
  newlyDead.clear();
  for (ChannelId c = 0; c < channelCount_; ++c) {
    const bool alivePrev = channelSteps(topo.channelDst(c), c) == 1;
    const bool aliveNow = aliveBit(channelAlive, c);
    if (aliveNow && !alivePrev) {  // revival: full build needed
      if (revived != nullptr) *revived = c;
      return false;
    }
    if (alivePrev && !aliveNow) newlyDead.push_back(c);
  }

  // Destination d is dirty iff some newly dead channel c lies on a minimal
  // path of d: it starts one from src(c) (its steps match the best over
  // src(c)'s outputs), or it continues some in-channel e of src(c)
  // (steps(d, e) == steps(d, c) + 1, e != reverse(c) — the any-turn
  // continuation test, a superset of the turn-legal one).  For a clean
  // destination no minimal path from any channel crosses c, so no step
  // value besides c's own can change.
  dirty.assign(n, 0);
  for (NodeId d = 0; d < n; ++d) {
    const std::uint16_t* steps = row(d);
    for (const ChannelId c : newlyDead) {
      const std::uint16_t stepsC = steps[c];
      if (stepsC == kNoPath) continue;
      const NodeId src = topo.channelSrc(c);
      bool hit = false;
      if (src != d) {
        std::uint16_t best = kNoPath;
        for (ChannelId o : topo.outputChannels(src)) {
          best = std::min(best, steps[o]);
        }
        hit = stepsC == best;
      }
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
        dirty[d] = 1;
        break;
      }
    }
  }
  return true;
}

std::uint32_t RoutingTable::dirtyDestinationCount(
    std::span<const std::uint64_t> channelAlive) const {
  std::vector<ChannelId> newlyDead;
  std::vector<std::uint8_t> dirty;
  if (!computeDeadDelta(channelAlive, newlyDead, dirty)) return nodeCount_;
  std::uint32_t count = 0;
  for (const std::uint8_t bit : dirty) count += bit;
  return count;
}

std::optional<RoutingTable> RoutingTable::rebuildDead(
    const RoutingTable& prev, util::ThreadPool* pool,
    std::span<const std::uint64_t> channelAlive,
    std::vector<NodeId>* dirtyDestinations, util::SpanRecorder* spans,
    const DestinationCheck& check) {
  const NodeId n = prev.nodeCount_;

  util::ScopedSpan buildSpan(spans, "table_build");
  buildSpan.arg("destinations", n);
  buildSpan.arg("threads", threadsOf(pool));
  buildSpan.arg("parallel", threadsOf(pool) > 1 ? 1 : 0);
  buildSpan.arg("incremental", 1);

  std::vector<ChannelId> newlyDead;
  std::vector<std::uint8_t> dirty;
  std::vector<NodeId> dirtyList;
  {
    util::ScopedSpan deltaSpan(spans, "dirty_delta");
    ChannelId revived = topo::kInvalidChannel;
    if (!prev.computeDeadDelta(channelAlive, newlyDead, dirty, &revived)) {
      throw std::invalid_argument(
          "RoutingTable::rebuildDead: channel " + std::to_string(revived) +
          " is alive in the mask but dead in the previous table; a revived "
          "channel needs a full build");
    }
    for (NodeId d = 0; d < n; ++d) {
      if (dirty[d]) dirtyList.push_back(d);
    }
    deltaSpan.arg("dirty", dirtyList.size());
    deltaSpan.arg("deadChannels", newlyDead.size());
  }
  if (dirtyDestinations != nullptr) *dirtyDestinations = dirtyList;

  // Clean rows keep prev's steps with the dead channels pinned to kNoPath;
  // dirty rows are recomputed in batches and checked as soon as their
  // batch is final.
  RoutingTable table(prev);
  for (NodeId d = 0; d < n; ++d) {
    if (dirty[d]) continue;
    std::uint16_t* steps =
        &table.steps_[static_cast<std::size_t>(d) * table.channelCount_];
    for (const ChannelId c : newlyDead) steps[c] = kNoPath;
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
         channelCount_ == other.channelCount_ && steps_ == other.steps_;
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
  if (src == dst) return 0;
  std::uint16_t best = kNoPath;
  for (ChannelId c : topo_->outputChannels(src)) {
    best = std::min(best, channelSteps(dst, c));
  }
  return best;
}

RoutingTable::PairTotals RoutingTable::pairTotals(
    std::span<const std::uint8_t> nodeAlive) const {
  const Topology& topo = *topo_;
  const NodeId n = nodeCount_;
  const topo::LinkId links = topo.linkCount();
  const auto alive = [nodeAlive](NodeId v) {
    return nodeAlive.empty() || nodeAlive[v] != 0;
  };
  // distance(s, d) for every s at once: one pass over row d in channel
  // order, folding each channel into the minimum of its source node.
  std::vector<std::uint16_t> distance(n);
  PairTotals totals;
  for (NodeId d = 0; d < n; ++d) {
    if (!alive(d)) continue;
    const std::uint16_t* steps = row(d);
    std::fill(distance.begin(), distance.end(), kNoPath);
    for (topo::LinkId l = 0; l < links; ++l) {
      const auto [a, b] = topo.linkEnds(l);
      distance[a] = std::min(distance[a], steps[2 * l]);
      distance[b] = std::min(distance[b], steps[2 * l + 1]);
    }
    for (NodeId s = 0; s < n; ++s) {
      if (s == d || !alive(s)) continue;
      if (distance[s] == kNoPath) {
        ++totals.unreachablePairs;
      } else {
        ++totals.reachablePairs;
        totals.hopSum += distance[s];
      }
    }
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
