// The DOWN/UP routing builder (the paper's contribution) and a small
// dispatcher over every routing algorithm in the library, used by the
// experiment harness.
#pragma once

#include <string_view>

#include "core/ddg.hpp"
#include "core/release.hpp"
#include "core/repair.hpp"
#include "routing/algorithm.hpp"
#include "routing/leftright.hpp"
#include "routing/lturn.hpp"
#include "routing/updown.hpp"
#include "tree/coordinated_tree.hpp"

namespace downup::core {

struct DownUpOptions {
  /// Run the Phase-3 release pass (paper default: yes).
  bool releaseRedundant = true;
  /// Break the residual turn cycles the published rule admits (see
  /// core/repair.hpp).  Disable only to study the paper's rule as written.
  bool repairCycles = true;
  /// Parallelises the routing-table build (nullptr: serial).  The table is
  /// bit-for-bit identical at any thread count; the pool is not retained.
  util::ThreadPool* pool = nullptr;
  /// Records classify/repair/release/table-build stage spans (nullptr: no
  /// tracing, zero overhead).  Not retained.
  util::SpanRecorder* spans = nullptr;
};

/// Builds the DOWN/UP turn rule over a coordinated tree: Definition-5
/// channel directions, the 18-turn prohibited set, and optionally the
/// repair and per-node release passes.  With repairCycles the rule covers
/// every channel (TurnPermissions::cover).  `options.pool` is unused here.
routing::TurnPermissions buildDownUpRule(const routing::Topology& topo,
                                         const tree::CoordinatedTree& ct,
                                         const DownUpOptions& options = {});

/// buildDownUpRule plus the turn-restricted shortest-path table.
routing::Routing buildDownUp(const routing::Topology& topo,
                             const tree::CoordinatedTree& ct,
                             const DownUpOptions& options = {});

enum class Algorithm {
  kUpDownBfs,
  kUpDownDfs,
  kLTurn,
  kLeftRight,
  kDownUp,
  kDownUpNoRelease,  // ablation: PT applied uniformly, no release pass
};

inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kUpDownBfs, Algorithm::kUpDownDfs,  Algorithm::kLTurn,
    Algorithm::kLeftRight, Algorithm::kDownUp,
    Algorithm::kDownUpNoRelease};

std::string_view toString(Algorithm algorithm) noexcept;

/// Uniform entry point.  The coordinated tree is ignored by kUpDownDfs
/// (which derives its own DFS tree from the tree's root).  `pool`
/// parallelises table construction for the DOWN/UP variants (the
/// comparison algorithms build serially; their tables are small relative
/// to the sweeps they appear in).
routing::Routing buildRouting(Algorithm algorithm,
                              const routing::Topology& topo,
                              const tree::CoordinatedTree& ct,
                              util::ThreadPool* pool = nullptr);

}  // namespace downup::core
