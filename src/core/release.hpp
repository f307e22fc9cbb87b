// Phase 3 of the paper: per-node release of redundant prohibited turns.
//
// Only T(LU_CROSS -> RD_TREE) and T(RU_CROSS -> RD_TREE) are candidates
// (paper §4.3): they are the sole prohibitions whose release keeps pushing
// traffic downward, and RD_TREE outputs exist at every non-leaf node, so
// they dominate the prohibited-turn population.
//
// Interpretation note (documented deviation): the paper's pseudocode walks
// one (input, output) channel pair at a time and releases on the first pair
// that closes no cycle.  Because a release re-allows the turn for *every*
// channel pair with those directions at the node, we release only when no
// such pair can close a turn cycle, and we run each check against the
// tentatively-released permission set (so a cycle that would route through
// the released node twice is also caught).  This is sound — the final
// permission set provably admits no channel-dependency cycle — and releases
// a superset-of-none / subset-of-all relative to any per-pair scheme.
// Nodes are processed in ascending id order; earlier releases are visible
// to later checks, exactly as in the paper.
//
// The check is the paper's: one DFS over the channel-dependency graph
// restricted to currently-allowed turns per candidate, from the node's
// RD_TREE outputs towards its d1 inputs, O(candidates x dependency edges).
// DESIGN.md §11 records why no batched variant is kept.
#pragma once

#include "routing/turns.hpp"

namespace downup::core {

struct ReleaseStats {
  unsigned releasedTurns = 0;   // (node, direction-pair) releases granted
  unsigned candidateTurns = 0;  // (node, direction-pair) combinations tested
};

/// Runs the release pass over `perms` in place.
ReleaseStats releaseRedundantProhibitions(routing::TurnPermissions& perms);

}  // namespace downup::core
