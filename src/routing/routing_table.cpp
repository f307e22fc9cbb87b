#include "routing/routing_table.hpp"

#include <algorithm>
#include <atomic>
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

}  // namespace

void RoutingTable::bfsDestination(NodeId dst,
                                  std::span<const std::uint64_t> channelAlive,
                                  std::vector<ChannelId>& queue) {
  const Topology& topo = *topo_;
  auto* steps = &steps_[static_cast<std::size_t>(dst) * channelCount_];
  std::fill(steps, steps + channelCount_, kNoPath);
  queue.clear();
  queue.reserve(channelCount_);
  // Seeds are the input channels of dst (reverses of its outputs); the
  // final distances do not depend on intra-layer queue order, so any seed
  // enumeration order yields the same steps row.
  for (ChannelId out : topo.outputChannels(dst)) {
    const ChannelId c = Topology::reverseChannel(out);
    if (!aliveBit(channelAlive, c)) continue;
    steps[c] = 1;
    queue.push_back(c);
  }
  // Reverse adjacency is implicit: the predecessors of channel c are the
  // input channels of src(c) whose turn onto c is allowed.
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const ChannelId c = queue[head];
    const NodeId via = topo.channelSrc(c);
    const std::uint16_t nextSteps = static_cast<std::uint16_t>(steps[c] + 1);
    for (ChannelId out : topo.outputChannels(via)) {
      const ChannelId in = Topology::reverseChannel(out);
      if (steps[in] != kNoPath) continue;
      if (!aliveBit(channelAlive, in)) continue;
      if (!perms_->allowed(via, in, c)) continue;
      steps[in] = nextSteps;
      queue.push_back(in);
    }
  }
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

  // Per-destination rows are disjoint, so the BFS fans out directly.  The
  // queue is per OS thread and grows once to channelCount_; repeated builds
  // on warm threads allocate nothing here.
  {
    util::ScopedSpan bfsSpan(spans, "bfs");
    util::parallelFor(pool, n, [&table, channelAlive](std::size_t dst) {
      thread_local std::vector<ChannelId> queue;
      table.bfsDestination(static_cast<NodeId>(dst), channelAlive, queue);
    });
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
  std::uint32_t dirtyCount = 0;
  {
    util::ScopedSpan deltaSpan(spans, "dirty_delta");
    ChannelId revived = topo::kInvalidChannel;
    if (!prev.computeDeadDelta(channelAlive, newlyDead, dirty, &revived)) {
      throw std::invalid_argument(
          "RoutingTable::rebuildDead: channel " + std::to_string(revived) +
          " is alive in the mask but dead in the previous table; a revived "
          "channel needs a full build");
    }
    for (const std::uint8_t bit : dirty) dirtyCount += bit;
    deltaSpan.arg("dirty", dirtyCount);
    deltaSpan.arg("deadChannels", newlyDead.size());
  }
  if (dirtyDestinations != nullptr) {
    dirtyDestinations->clear();
    for (NodeId d = 0; d < n; ++d) {
      if (dirty[d]) dirtyDestinations->push_back(d);
    }
  }

  // Clean rows keep prev's steps with the dead channels pinned to kNoPath;
  // dirty rows are recomputed and checked as soon as they are final.
  RoutingTable table(prev);
  std::atomic<bool> rejected{false};
  util::ScopedSpan bfsSpan(spans, "bfs");
  bfsSpan.arg("dirty", dirtyCount);
  util::parallelFor(pool, n, [&](std::size_t d) {
    const auto dst = static_cast<NodeId>(d);
    if (!dirty[d]) {
      std::uint16_t* steps = &table.steps_[d * table.channelCount_];
      for (const ChannelId c : newlyDead) steps[c] = kNoPath;
      return;
    }
    if (rejected.load(std::memory_order_relaxed)) return;
    thread_local std::vector<ChannelId> queue;
    table.bfsDestination(dst, channelAlive, queue);
    if (check && !check(table, dst)) {
      rejected.store(true, std::memory_order_relaxed);
    }
  });
  if (rejected.load()) {
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

RoutingTable RoutingTable::remapComponents(
    const TurnPermissions& hostPerms, std::span<const ComponentMapping> parts) {
  RoutingTable host(hostPerms);
  const std::size_t channels = host.channelCount_;
  host.steps_.assign(static_cast<std::size_t>(host.nodeCount_) * channels,
                     kNoPath);

  // Scatter the per-destination step fields.  Components are node- and
  // channel-disjoint, so writes never collide.  Candidate order survives
  // the mapping because sub node ids ascend with host ids
  // (ComponentMapping contract), so a host adjacency scan meets a
  // component's channels in the order a sub scan would.
  for (const ComponentMapping& part : parts) {
    const RoutingTable& sub = *part.table;
    for (NodeId subDst = 0; subDst < sub.nodeCount_; ++subDst) {
      std::uint16_t* hostRow =
          &host.steps_[static_cast<std::size_t>(part.nodeToHost[subDst]) *
                       channels];
      const std::uint16_t* subRow = sub.row(subDst);
      for (ChannelId c = 0; c < sub.channelCount_; ++c) {
        hostRow[part.channelToHost[c]] = subRow[c];
      }
    }
  }
  return host;
}

std::uint16_t RoutingTable::distance(NodeId src, NodeId dst) const noexcept {
  if (src == dst) return 0;
  std::uint16_t best = kNoPath;
  for (ChannelId c : topo_->outputChannels(src)) {
    best = std::min(best, channelSteps(dst, c));
  }
  return best;
}

bool RoutingTable::allPairsConnected() const noexcept {
  const NodeId n = nodeCount_;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s != d && distance(s, d) == kNoPath) return false;
    }
  }
  return true;
}

double RoutingTable::averagePathLength() const {
  const NodeId n = nodeCount_;
  double sum = 0.0;
  std::uint64_t pairs = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      const std::uint16_t dist = distance(s, d);
      if (dist == kNoPath) continue;
      sum += dist;
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

}  // namespace downup::routing
