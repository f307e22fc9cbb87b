// Runtime fault state for one simulation: applies a FaultSchedule's events
// as the clock passes them, tracks which links/nodes are currently alive,
// and owns the reconfiguration-window clock.
//
// Aliveness model: a link is alive iff it has not been explicitly failed
// (kLinkDown without a matching kLinkUp) AND both endpoint switches are
// alive.  Down/up events are idempotent — failing a dead link or switch
// again is a no-op, so one kLinkUp always suffices — and a link that failed
// on its own stays dead while an endpoint is also down.
//
// The controller is pure bookkeeping: it never touches simulator state.
// The engine asks applyEventsAt() which links/nodes just died (to drop the
// flits occupying them), then opens a reconfiguration window and, when the
// window elapses, publishes a routing epoch rebuilt from the alive masks
// (fabric::FabricManager::publishFromMasks) and hot-swaps the table.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/schedule.hpp"

namespace downup::fault {

class FaultController {
 public:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// `schedule` (validated against `topo`) and `topo` must outlive the
  /// controller.
  FaultController(const topo::Topology& topo, const FaultSchedule& schedule);

  /// Cycle of the next unapplied event; kNever once exhausted.
  std::uint64_t nextEventCycle() const noexcept {
    return cursor_ < schedule_->size() ? schedule_->events()[cursor_].cycle
                                       : kNever;
  }

  struct Applied {
    /// Links that transitioned alive -> dead during this batch.
    std::span<const topo::LinkId> newlyDeadLinks;
    /// Switches that transitioned alive -> dead during this batch.
    std::span<const topo::NodeId> newlyDeadNodes;
    /// Any alive-state transition happened (links or nodes, either way).
    bool topologyChanged = false;
  };

  /// Applies every scheduled event at exactly `cycle` (in schedule order)
  /// and reports the transitions.  The returned spans point into scratch
  /// buffers valid until the next call.
  Applied applyEventsAt(std::uint64_t cycle);

  bool linkAlive(topo::LinkId l) const noexcept { return linkAlive_[l] != 0; }
  bool channelAlive(topo::ChannelId c) const noexcept {
    return linkAlive_[topo::Topology::linkOf(c)] != 0;
  }
  bool nodeAlive(topo::NodeId v) const noexcept { return nodeAlive_[v] != 0; }

  /// True while any link or switch is currently dead.
  bool anyFault() const noexcept {
    return explicitDownCount_ + deadNodeCount_ > 0;
  }

  // Alive masks in Reconfigurator::rebuild() form.  linkAliveMask() already
  // folds dead endpoints in (it is the effective mask).
  std::span<const std::uint8_t> linkAliveMask() const noexcept {
    return linkAlive_;
  }
  std::span<const std::uint8_t> nodeAliveMask() const noexcept {
    return nodeAlive_;
  }

  // --- reconfiguration window (engine-driven clock) ---

  /// Opens the window, or extends it when already open (a second fault
  /// during reconfiguration restarts the protocol's timer).
  void openWindowUntil(std::uint64_t endCycle) noexcept {
    windowOpen_ = true;
    if (endCycle > windowEnd_) windowEnd_ = endCycle;
  }
  bool windowOpen() const noexcept { return windowOpen_; }
  /// First cycle at which the swap may happen (valid while windowOpen()).
  std::uint64_t windowEnd() const noexcept { return windowEnd_; }
  void closeWindow() noexcept { windowOpen_ = false; }

 private:
  void refreshLink(topo::LinkId l);

  const topo::Topology* topo_;
  const FaultSchedule* schedule_;
  std::size_t cursor_ = 0;

  std::vector<std::uint8_t> linkExplicitDown_;
  std::vector<std::uint8_t> linkAlive_;  // effective: explicit + endpoints
  std::vector<std::uint8_t> nodeAlive_;
  std::uint32_t explicitDownCount_ = 0;
  std::uint32_t deadNodeCount_ = 0;

  bool windowOpen_ = false;
  std::uint64_t windowEnd_ = 0;

  bool batchChanged_ = false;
  std::vector<topo::LinkId> newlyDeadLinks_;   // scratch for Applied
  std::vector<topo::NodeId> newlyDeadNodes_;
};

}  // namespace downup::fault
