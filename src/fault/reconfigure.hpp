// Online DOWN/UP reconfiguration: rebuild the coordinated tree, the
// Definition-5 turn rule (with the repair and release passes) and the
// shortest-path table on whatever topology is left after faults, expressed
// in the ORIGINAL topology's node/channel numbering so a running simulator
// can hot-swap the table without renumbering any of its channel state.
//
// The degraded graph may be disconnected (node failures isolate switches,
// link failures can split the network).  Every alive connected component
// with at least two switches gets its own turn rule — compacted
// sub-topology, coordinated tree and DOWN/UP rule — and the rules are
// merged into host numbering.  One RoutingTable::build over the merged
// rule, with dead channels masked out, is the epoch's only table; pairs in
// different components come out unreachable and are reported for the
// engine to drop with attribution.  Channel-dependency graphs of distinct
// components are disjoint, so one dependency check masked to the alive
// channels (routing::verifyRouting) decides the merged rule, and its alive
// mask becomes the rule's cover (TurnPermissions::cover): the incremental
// path may serve any later alive set inside it with the same rule.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "routing/routing_table.hpp"

namespace downup::fault {

/// One rebuilt routing epoch.  `table` indexes the ORIGINAL topology's
/// channels; `perms` (which `table` references) lives alongside it.
struct ReconfigOutcome {
  std::unique_ptr<routing::TurnPermissions> perms;
  std::unique_ptr<routing::RoutingTable> table;

  unsigned components = 0;      // alive components (isolated switches count)
  std::uint32_t aliveNodes = 0;
  std::uint32_t aliveLinks = 0;
  /// Ordered alive-node pairs with no legal path (cross-component pairs
  /// plus any within-component unreachability — the latter is a bug and
  /// implies !deadlockFree or a verify failure).
  std::uint64_t unreachablePairs = 0;
  /// The rule's channel-dependency graph, restricted to the alive
  /// channels, verified acyclic.
  bool deadlockFree = false;
  /// Every within-component ordered pair reachable on legal paths.
  bool componentsConnected = false;
  /// Mean legal hop count over reachable pairs, across components.
  double averagePathLength = 0.0;
  /// Epoch was produced by the incremental path: previous turn rule kept,
  /// only dirty destinations rebuilt.
  bool incremental = false;
  /// Destinations whose table rows were recomputed (aliveNodes on a full
  /// rebuild; the incremental path's dirty-set size otherwise).
  std::uint32_t rebuiltDestinations = 0;

  bool ok() const noexcept { return deadlockFree && componentsConnected; }
};

class Reconfigurator {
 public:
  /// `topo` is the healthy (full) topology; it must outlive the
  /// reconfigurator and every outcome it produces.  `pool` (optional) must
  /// outlive the reconfigurator and parallelises table construction;
  /// outcomes are identical at any thread count.
  explicit Reconfigurator(const topo::Topology& topo,
                          util::ThreadPool* pool = nullptr)
      : topo_(&topo), pool_(pool) {}

  const topo::Topology& topology() const noexcept { return *topo_; }

  /// Attaches a span recorder: every full rebuild emits partition, then
  /// subtopo / tree / classify / repair / release per component, then
  /// merge / table_build / verify stage spans.  nullptr (the default)
  /// detaches; the pointer must stay valid across rebuild calls and is
  /// shared with them unsynchronised, so set it before rebuilds start.
  void setSpans(util::SpanRecorder* spans) noexcept { spans_ = spans; }

  /// Rebuilds routing over the subgraph restricted to nodes with
  /// nodeAlive[v] != 0 and links with linkAlive[l] != 0 (a dead endpoint
  /// implies a dead link regardless of linkAlive).  Deterministic: uses the
  /// paper's M1 tree policy, no RNG.
  ReconfigOutcome rebuild(std::span<const std::uint8_t> linkAlive,
                          std::span<const std::uint8_t> nodeAlive) const;

  /// Incremental epoch: keeps `prevTable`'s turn rule and recomputes only
  /// the destinations the change can touch (RoutingTable::rebuildDead).
  /// It serves masks that only kill channels or only revive channels
  /// inside the rule's cover — both leave the alive set inside the cover,
  /// where the rule's dependency graph is acyclic — so a recovery after an
  /// incremental failure stays incremental.  The cover travels with the
  /// rule, so any holder of `prevTable` gets the same decision.  Falls back
  /// to a full rebuild() when a revival lies outside the cover, when the
  /// mask kills and revives at once, when a newly dead channel is a
  /// DOWN/UP tree channel (the old tree never serves that loss), or when
  /// the inherited rule leaves a within-component pair unreachable that
  /// re-rooting could serve; that is checked per dirty destination as soon
  /// as its 64-destination BFS batch ends, so a fallback skips the
  /// remaining batches and the verify step.  Verify is rebuild()'s:
  /// routing::verifyRouting over the alive mask.  The outcome reports
  /// which path ran via `incremental`.
  ReconfigOutcome rebuildIncremental(
      const routing::RoutingTable& prevTable,
      std::span<const std::uint8_t> linkAlive,
      std::span<const std::uint8_t> nodeAlive) const;

  /// Fraction (0, 1] of per-destination construction work an incremental
  /// epoch would redo given the masks; 1.0 when the incremental path
  /// declines the event up front (see rebuildIncremental).  The engine uses this to size the reconfiguration window at
  /// fault time, before the rebuild itself runs.
  double incrementalDirtyFraction(const routing::RoutingTable& prevTable,
                                  std::span<const std::uint8_t> linkAlive,
                                  std::span<const std::uint8_t> nodeAlive) const;

 private:
  /// Whether the incremental path may serve `alive` from `prevTable`: the
  /// mask only kills channels, none of them a DOWN/UP tree channel, or
  /// only revives channels inside the inherited rule's cover.
  bool incrementalApplies(const routing::RoutingTable& prevTable,
                          std::span<const std::uint64_t> alive) const;

  std::vector<std::uint64_t> channelAliveWords(
      std::span<const std::uint8_t> linkAlive,
      std::span<const std::uint8_t> nodeAlive) const;

  const topo::Topology* topo_;
  util::ThreadPool* pool_ = nullptr;
  util::SpanRecorder* spans_ = nullptr;
};

}  // namespace downup::fault
