// Turn sets (global direction-pair rules) and per-node turn permissions.
//
// A TurnSet answers "may a packet that arrived on a d1-direction channel
// continue on a d2-direction channel?" for d1 != d2.  Continuing in the same
// direction (d1 == d2) is always allowed: a chain of same-direction channels
// is strictly monotone in X or Y and can never close a cycle.
//
// TurnPermissions binds a TurnSet to a concrete topology + channel-direction
// map and layers per-node overrides on top:
//   * releases — the DOWN/UP release pass re-allows a globally prohibited
//     turn at individual nodes where it cannot close a turn cycle;
//   * blocks   — the repair pass (core/repair.hpp) prohibits a globally
//     allowed turn at individual nodes to break residual turn cycles (the
//     published DOWN/UP turn set is not fully acyclic; see DESIGN.md §4.4).
// Blocks take precedence over everything, including the same-direction
// continuation rule.  It also enforces the structural no-U-turn rule: a
// packet never leaves a node over the reverse of the channel it arrived on.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "routing/direction.hpp"

namespace downup::routing {

class TurnSet {
 public:
  /// All distinct-direction turns allowed.
  static TurnSet allAllowed() noexcept { return TurnSet(); }

  void prohibit(Dir from, Dir to) noexcept {
    allowed_[index(from)][index(to)] = false;
  }
  void allow(Dir from, Dir to) noexcept {
    allowed_[index(from)][index(to)] = true;
  }
  bool isAllowed(Dir from, Dir to) const noexcept {
    return from == to || allowed_[index(from)][index(to)];
  }

  /// All prohibited (from, to) pairs in row-major direction order.
  std::vector<std::pair<Dir, Dir>> prohibitedList() const;

  std::size_t prohibitedCount() const noexcept;

  bool operator==(const TurnSet&) const = default;

 private:
  TurnSet() noexcept {
    for (auto& row : allowed_) row.fill(true);
  }

  std::array<std::array<bool, kDirCount>, kDirCount> allowed_;
};

/// The classic up*/down* rule: down (RD_TREE) may never turn onto up
/// (LU_TREE).  Used with classifyUpDown / classifyUpDownDfs.
TurnSet upDownTurnSet() noexcept;

/// Reconstructed L-turn rule on the six coordinate directions (see
/// DESIGN.md §5): prohibits every down->up turn, every horizontal->up turn,
/// and L->R.  Used with classifyCoordinate.
TurnSet lturnTurnSet() noexcept;

class TurnPermissions {
 public:
  TurnPermissions(const Topology& topo, DirectionMap channelDirs,
                  TurnSet global);

  const Topology& topology() const noexcept { return *topo_; }
  Dir dir(ChannelId c) const noexcept { return dirs_[c]; }
  const TurnSet& global() const noexcept { return global_; }

  /// May a packet arriving at `via` on `in` continue on `out`?
  /// `via` must be dst(in) and src(out).
  bool allowed(NodeId via, ChannelId in, ChannelId out) const noexcept {
    if (out == Topology::reverseChannel(in)) return false;  // no U-turns
    const Dir d1 = dirs_[in];
    const Dir d2 = dirs_[out];
    const std::uint64_t mask = bit(d1, d2);
    if ((blocked_[via] & mask) != 0) return false;
    if (global_.isAllowed(d1, d2)) return true;
    return (released_[via] & mask) != 0;
  }

  /// Direction-level query including per-node overrides (for reporting).
  bool allowedDirs(NodeId via, Dir d1, Dir d2) const noexcept {
    const std::uint64_t mask = bit(d1, d2);
    if ((blocked_[via] & mask) != 0) return false;
    return global_.isAllowed(d1, d2) || (released_[via] & mask) != 0;
  }

  void releaseAt(NodeId v, Dir d1, Dir d2) noexcept {
    released_[v] |= bit(d1, d2);
  }
  void revokeReleaseAt(NodeId v, Dir d1, Dir d2) noexcept {
    released_[v] &= ~bit(d1, d2);
  }
  bool isReleasedAt(NodeId v, Dir d1, Dir d2) const noexcept {
    return (released_[v] & bit(d1, d2)) != 0;
  }

  void blockAt(NodeId v, Dir d1, Dir d2) noexcept {
    blocked_[v] |= bit(d1, d2);
  }
  bool isBlockedAt(NodeId v, Dir d1, Dir d2) const noexcept {
    return (blocked_[v] & bit(d1, d2)) != 0;
  }

  /// Total number of (node, turn) releases / blocks in effect.
  std::size_t releaseCount() const noexcept;
  std::size_t blockCount() const noexcept;

  /// The rule's *cover*: the channels (one bit each) its dependency graph
  /// was checked acyclic on.  Removing channels from an acyclic graph
  /// cannot create a cycle, so the rule is deadlock-free on every alive
  /// set inside the cover.  Empty — the default, e.g. for a rule loaded
  /// from a file — covers no channel.  Copies carry the cover along.
  std::span<const std::uint64_t> cover() const noexcept { return cover_; }
  void setCover(std::vector<std::uint64_t> channels) {
    cover_ = std::move(channels);
  }
  bool covers(ChannelId c) const noexcept {
    return (c >> 6) < cover_.size() && ((cover_[c >> 6] >> (c & 63)) & 1u);
  }

 private:
  static std::uint64_t bit(Dir d1, Dir d2) noexcept {
    return std::uint64_t{1} << (index(d1) * kDirCount + index(d2));
  }

  const Topology* topo_;
  DirectionMap dirs_;
  TurnSet global_;
  std::vector<std::uint64_t> released_;  // 8x8 bitmask per node
  std::vector<std::uint64_t> blocked_;   // 8x8 bitmask per node
  std::vector<std::uint64_t> cover_;     // one bit per channel
};

}  // namespace downup::routing
