#include "fault/controller.hpp"

namespace downup::fault {

FaultController::FaultController(const topo::Topology& topo,
                                 const FaultSchedule& schedule)
    : topo_(&topo),
      schedule_(&schedule),
      linkExplicitDown_(topo.linkCount(), 0),
      linkAlive_(topo.linkCount(), 1),
      nodeAlive_(topo.nodeCount(), 1) {
  schedule.validate(topo);
}

void FaultController::refreshLink(topo::LinkId l) {
  const auto [a, b] = topo_->linkEnds(l);
  const std::uint8_t alive =
      !linkExplicitDown_[l] && nodeAlive_[a] && nodeAlive_[b];
  if (alive == linkAlive_[l]) return;
  batchChanged_ = true;
  if (!alive) newlyDeadLinks_.push_back(l);
  linkAlive_[l] = alive;
}

FaultController::Applied FaultController::applyEventsAt(std::uint64_t cycle) {
  newlyDeadLinks_.clear();
  newlyDeadNodes_.clear();
  batchChanged_ = false;
  const auto events = schedule_->events();
  for (; cursor_ < events.size() && events[cursor_].cycle == cycle; ++cursor_) {
    const FaultEvent& event = events[cursor_];
    switch (event.kind) {
      case FaultKind::kLinkDown:
        if (!linkExplicitDown_[event.id]) {
          linkExplicitDown_[event.id] = 1;
          ++explicitDownCount_;
          refreshLink(event.id);
        }
        break;
      case FaultKind::kLinkUp:
        if (linkExplicitDown_[event.id]) {
          linkExplicitDown_[event.id] = 0;
          --explicitDownCount_;
          refreshLink(event.id);
        }
        break;
      case FaultKind::kNodeDown:
        if (nodeAlive_[event.id]) {
          nodeAlive_[event.id] = 0;
          ++deadNodeCount_;
          newlyDeadNodes_.push_back(event.id);
          batchChanged_ = true;
          for (topo::ChannelId c : topo_->outputChannels(event.id)) {
            refreshLink(topo::Topology::linkOf(c));
          }
        }
        break;
      case FaultKind::kNodeUp:
        if (!nodeAlive_[event.id]) {
          nodeAlive_[event.id] = 1;
          --deadNodeCount_;
          batchChanged_ = true;
          for (topo::ChannelId c : topo_->outputChannels(event.id)) {
            refreshLink(topo::Topology::linkOf(c));
          }
        }
        break;
    }
  }
  return {newlyDeadLinks_, newlyDeadNodes_, batchChanged_};
}

}  // namespace downup::fault
