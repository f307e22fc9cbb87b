// Turn-restricted shortest-path routing tables.
//
// Because legality of a hop depends on the direction of the channel a packet
// arrived on, shortest paths are computed on the *channel graph*: vertices
// are channels, and channel c may be followed by channel c' when
// dst(c) == src(c') and the turn (dir(c) -> dir(c')) is allowed at that
// node.  For every destination d we run one reverse BFS over that graph,
// yielding steps(d, c) = minimal number of channels on an allowed path that
// starts by traversing c and ends at d.
//
// The BFS is bit-parallel over destinations: one sweep serves 64 of them,
// each channel holding one uint64_t word per BFS set (seen, frontier,
// next) with bit i belonging to the batch's i-th destination.  A level ORs
// a channel's frontier word into its legal predecessors' next words, so
// one pass over the predecessor lists advances all 64 searches.  Lanes
// never influence one another, so every row is exactly the single-source
// BFS result.
//
// The adaptive routing relation the simulator consumes falls out directly:
// at node v (arrived via `in`, heading to d) every allowed output channel o
// with steps(d, o) == steps(d, in) - 1 lies on a globally minimal legal
// path, and all such channels are candidates (Section 5 of the paper routes
// on "the shortest possible paths", choosing among them at random).
//
// The steps table is the only routing state stored.  Candidate queries
// scan one node's output channels against it (and, for the turn-legal
// variant, the turn rule) and return the result inline in a fixed-capacity
// Candidates value: no per-query allocation, and nothing derived to
// rebuild or copy when the table changes.  Beside it each row keeps two
// totals — its reachable-source count and hop sum — filled as the BFS
// settles nodes, so pair totals cost O(nodes) and an incremental rebuild
// pays for its dirty rows only.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "routing/turns.hpp"
#include "util/span_recorder.hpp"

namespace downup::util {
class ThreadPool;
}  // namespace downup::util

namespace downup::routing {

inline constexpr std::uint16_t kNoPath = 0xffff;

/// Largest node degree a RoutingTable accepts.  Every candidate query
/// returns at most one node's output channels, held inline; build()
/// refuses a topology with a larger degree.
inline constexpr std::size_t kMaxCandidates = 32;

/// Fixed-capacity list of candidate output channels, in outputChannels()
/// order.  A plain value: candidate queries return it by value and callers
/// may keep, copy and assign it freely.
class Candidates {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  ChannelId operator[](std::size_t i) const noexcept { return items_[i]; }
  ChannelId front() const noexcept { return items_[0]; }
  const ChannelId* begin() const noexcept { return items_.data(); }
  const ChannelId* end() const noexcept { return items_.data() + size_; }

  void push_back(ChannelId c) noexcept {
    assert(size_ < kMaxCandidates);
    items_[size_++] = c;
  }

 private:
  std::uint32_t size_ = 0;
  std::array<ChannelId, kMaxCandidates> items_{};
};

class RoutingTable {
 public:
  /// Builds the table: a reverse BFS per destination over the channel
  /// graph, run 64 destinations per bit-parallel sweep —
  /// O(destinations / 64 x levels x channels x avg-degree) word operations
  /// plus one write per (destination, reachable channel).
  ///
  /// The 64-destination batches write disjoint rows, so they fan out over
  /// `pool` (nullptr or a single-thread pool runs serially).  Output is
  /// bit-for-bit identical at any thread count: BFS distances do not depend
  /// on visit order, and lanes of one sweep never read each other's bits.
  ///
  /// `channelAlive` (optional, one bit per channel, empty = all alive)
  /// masks dead channels out of the table: they seed no BFS, relax no
  /// predecessor and keep kNoPath steps everywhere, so no candidate query
  /// ever offers them and a running simulator can consume a masked table
  /// directly.  An online reconfiguration epoch (fault/reconfigure.hpp) is
  /// one such build over every surviving component at once.
  ///
  /// Throws std::invalid_argument when a node's degree exceeds
  /// kMaxCandidates.  `spans` (optional) records a `table_build` span with
  /// a `bfs` child annotated with destination/thread counts; nullptr (the
  /// default) takes a branch-per-stage and nothing else.
  static RoutingTable build(const TurnPermissions& perms,
                            util::ThreadPool* pool = nullptr,
                            std::span<const std::uint64_t> channelAlive = {},
                            util::SpanRecorder* spans = nullptr);

  /// Called by rebuildDead for each dirty destination as soon as the
  /// 64-destination batch holding it finishes, possibly from several pool
  /// threads at once; it may read only that destination's row
  /// (channelSteps(dst, ·), distance(·, dst)).  Returning false abandons
  /// the rebuild: batches not yet started are skipped.
  using DestinationCheck =
      std::function<bool(const RoutingTable& table, NodeId dst)>;

  /// Incremental rebuild: produces a table identical to
  /// build(prev.permissions(), pool, channelAlive), row totals included,
  /// while re-running the batched BFS only for *dirty* destinations.
  ///
  /// The mask may either only clear bits relative to the set prev was
  /// built with (channel deaths) or only set bits inside the rule's cover
  /// (TurnPermissions::cover, channel revivals).
  ///   * Deaths: d is dirty iff some newly dead channel lies on a minimal
  ///     path of d — it starts one from its source node, or continues some
  ///     other channel's.  Clean rows keep every step value; they are
  ///     copied with the dead channels pinned to kNoPath.
  ///   * Revivals: each revived channel c gets s = steps(d, c) from its
  ///     legal successors (revived ones included).  d is dirty iff some
  ///     finite s has an alive legal predecessor p of c with
  ///     steps(d, p) > s + 1.  Clean rows keep every other step value and
  ///     get c's entry patched to s.
  /// A mask that revives a channel outside the cover, or that kills and
  /// revives at once, needs a full build: rebuildDead throws
  /// std::invalid_argument naming the case.  If `dirtyDestinations` is
  /// non-null it receives the dirty set (ascending).  When `check` rejects
  /// a dirty destination the remaining BFS work is skipped and the result
  /// is std::nullopt; without a check it always holds a table.
  static std::optional<RoutingTable> rebuildDead(
      const RoutingTable& prev, util::ThreadPool* pool,
      std::span<const std::uint64_t> channelAlive,
      std::vector<NodeId>* dirtyDestinations = nullptr,
      util::SpanRecorder* spans = nullptr,
      const DestinationCheck& check = {});

  /// Number of destinations rebuildDead(*this, ..., channelAlive) would
  /// recompute, or nodeCount() when it would refuse the mask (a revival
  /// outside the cover, or deaths and revivals at once).  Cheap —
  /// O(changed channels x nodes x degree) — so the engine can size the
  /// reconfiguration window before running the rebuild itself.
  std::uint32_t dirtyDestinationCount(
      std::span<const std::uint64_t> channelAlive) const;

  /// The channels `channelAlive` kills or revives relative to the alive
  /// set this table was built with, each ascending.
  struct ChannelChanges {
    std::vector<ChannelId> dead;
    std::vector<ChannelId> revived;
  };
  ChannelChanges changedChannels(
      std::span<const std::uint64_t> channelAlive) const;

  /// Points the table at an identical permission set (same topology, same
  /// turn rule).  Used when an epoch swap copies the permissions it was
  /// built against; `perms` must outlive the table.
  void rebindPermissions(const TurnPermissions& perms) noexcept {
    perms_ = &perms;
    topo_ = &perms.topology();
  }

  const TurnPermissions& permissions() const noexcept { return *perms_; }
  const Topology& topology() const noexcept { return *topo_; }

  /// Channels on a minimal legal path to dst whose first hop is c
  /// (kNoPath if dst is unreachable through c).
  std::uint16_t channelSteps(NodeId dst, ChannelId c) const noexcept {
    return row(dst)[c];
  }

  /// Minimal legal hop count from src to dst; kNoPath if unreachable,
  /// 0 when src == dst.
  std::uint16_t distance(NodeId src, NodeId dst) const noexcept;

  // --- allocation-free candidate queries (the simulator's fast path) ---

  /// Every output channel of src that starts a minimal legal path to dst
  /// (injection: no input-channel constraint), in outputChannels(src) order.
  Candidates firstChannels(NodeId src, NodeId dst) const noexcept {
    Candidates out;
    if (src == dst) return out;
    const std::uint16_t* steps = row(dst);
    const auto outputs = topo_->outputChannels(src);
    std::uint16_t best = kNoPath;
    for (const ChannelId c : outputs) best = std::min(best, steps[c]);
    if (best == kNoPath) return out;
    for (const ChannelId c : outputs) {
      if (steps[c] == best) out.push_back(c);
    }
    return out;
  }

  /// Every output channel at v == dst(in) that continues a minimal legal
  /// path to dst, honouring the turn constraint against `in`, in
  /// outputChannels(v) order.
  Candidates nextChannels(ChannelId in, NodeId dst) const noexcept {
    Candidates out;
    const std::uint16_t* steps = row(dst);
    const std::uint16_t remaining = steps[in];
    if (remaining == kNoPath || remaining <= 1) return out;  // <=1: at dst
    const NodeId via = topo_->channelDst(in);
    for (const ChannelId next : topo_->outputChannels(via)) {
      if (steps[next] == remaining - 1 && perms_->allowed(via, in, next)) {
        out.push_back(next);
      }
    }
    return out;
  }

  /// Like nextChannels but ignoring the turn rule (U-turns still excluded):
  /// every output whose legal-steps potential is exactly one less than
  /// `in`'s.  This is the adaptive-class candidate set of the
  /// escape-channel routing scheme (sim/config.hpp): because steps(d, c) is
  /// defined over *legal* continuations, a turn-legal escape successor
  /// always exists from any channel this relation can reach.
  Candidates nextChannelsAnyTurn(ChannelId in, NodeId dst) const noexcept {
    Candidates out;
    const std::uint16_t* steps = row(dst);
    const std::uint16_t remaining = steps[in];
    if (remaining == kNoPath || remaining <= 1) return out;
    const NodeId via = topo_->channelDst(in);
    for (const ChannelId next : topo_->outputChannels(via)) {
      if (steps[next] == remaining - 1 &&
          next != Topology::reverseChannel(in)) {
        out.push_back(next);
      }
    }
    return out;
  }

  /// True when the two tables hold identical steps and row totals (the
  /// permissions pointer is not compared).  Used by the determinism and
  /// incremental-equivalence tests.
  bool identicalTo(const RoutingTable& other) const noexcept;

  /// FNV-1a hash over the table contents (sizes and steps).  Stable across
  /// thread counts and build paths; golden-pinned in tests.
  std::uint64_t fingerprint() const noexcept;

  /// Heap and object bytes this table holds (the steps table dominates:
  /// 2 bytes per (destination, channel)).
  std::size_t bytes() const noexcept {
    return sizeof(*this) + steps_.capacity() * sizeof(std::uint16_t) +
           reach_.capacity() * sizeof(std::uint32_t) +
           hopSum_.capacity() * sizeof(std::uint64_t);
  }

  /// Legal-distance totals over ordered pairs (src != dst).  The sum is an
  /// integer, so it does not depend on the order pairs are visited in.
  struct PairTotals {
    std::uint64_t reachablePairs = 0;
    std::uint64_t unreachablePairs = 0;
    std::uint64_t hopSum = 0;  // distance summed over the reachable pairs

    double meanHops() const noexcept {
      return reachablePairs == 0 ? 0.0
                                 : static_cast<double>(hopSum) /
                                       static_cast<double>(reachablePairs);
    }
  };

  /// Sums the per-destination totals every row stores (its reachable-source
  /// count and hop sum, filled when the row is computed): O(nodes).
  /// `nodeAlive` (optional, one byte per node, empty = all alive) restricts
  /// both endpoints to alive nodes; every channel of a dead node must be
  /// dead in the table's mask, as a fault epoch's is, so that no dead
  /// source is counted as reached.
  PairTotals pairTotals(std::span<const std::uint8_t> nodeAlive = {}) const;

  /// True when distance(s, d) is finite for every ordered pair.
  bool allPairsConnected() const;

  /// Mean legal hop count over ordered pairs (src != dst); unreachable
  /// pairs are skipped (and counted by verify()).
  double averagePathLength() const;

 private:
  /// Binds perms and its topology's sizes (steps_ stays empty); throws
  /// std::invalid_argument when a degree exceeds kMaxCandidates.
  explicit RoutingTable(const TurnPermissions& perms);
  const std::uint16_t* row(NodeId dst) const noexcept {
    return steps_.data() + static_cast<std::size_t>(dst) * channelCount_;
  }
  /// Writes the steps rows and row totals of `dsts` (steps_ already
  /// sized), 64 destinations per BFS sweep, the sweeps fanned out over
  /// `pool`.  `check` (optional) sees each destination once its batch is
  /// final; the first rejection skips the batches not yet started and
  /// makes the result false.
  bool computeRows(std::span<const NodeId> dsts, util::ThreadPool* pool,
                   std::span<const std::uint64_t> channelAlive,
                   const DestinationCheck& check);

  /// The channels a mask kills or revives relative to this table, and the
  /// dirty destinations when rebuildDead accepts the mask (.cpp).
  struct Delta;
  Delta computeDelta(std::span<const std::uint64_t> channelAlive) const;

  const TurnPermissions* perms_ = nullptr;
  const Topology* topo_ = nullptr;
  std::uint32_t channelCount_ = 0;
  std::uint32_t nodeCount_ = 0;
  std::vector<std::uint16_t> steps_;  // [dst * channelCount_ + channel]
  // Per destination: sources with a finite distance, and their distance sum.
  std::vector<std::uint32_t> reach_;
  std::vector<std::uint64_t> hopSum_;
};

}  // namespace downup::routing
