// Channel-dependency-graph analysis.
//
// In wormhole switching a deadlock requires a cycle of channels each waiting
// on the next; an adaptive routing relation is deadlock-free iff the graph
// whose vertices are channels and whose edges are the *allowed turns*
// between consecutive channels is acyclic (Dally & Seitz; Definition 7 and
// Lemma 1 of the paper express the same through turn cycles).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "routing/turns.hpp"

namespace downup::routing {

struct CdgResult {
  bool acyclic = false;
  /// When cyclic: a witness turn cycle as a channel sequence
  /// c0 -> c1 -> ... -> c0 (first element repeated at the end is omitted).
  std::vector<ChannelId> cycle;
};

/// Checks acyclicity of the channel-dependency graph induced by `perms`.
/// `channelAlive` (optional, one bit per channel, empty = all alive)
/// restricts the graph to alive channels: a dead channel is neither a
/// vertex nor an edge end.  A fault epoch's rule gives dead channels an
/// arbitrary direction, so only the masked graph speaks for it.
CdgResult checkChannelDependencies(
    const TurnPermissions& perms,
    std::span<const std::uint64_t> channelAlive = {});

/// Is channel `to` reachable from channel `from` by traversing allowed
/// turns?  (`from` itself counts as traversed; reachability of `from` from
/// itself requires a genuine cycle.)
bool channelReachable(const TurnPermissions& perms, ChannelId from,
                      ChannelId to);

}  // namespace downup::routing
