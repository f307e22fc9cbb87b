#include "core/release.hpp"

#include <cstdint>
#include <vector>

namespace downup::core {

using routing::ChannelId;
using routing::Dir;
using routing::NodeId;
using routing::Topology;
using routing::TurnPermissions;

namespace {

/// Scratch shared by every candidate of one pass.
struct DfsScratch {
  std::vector<ChannelId> inputs;   // d1 inputs of the candidate's node
  std::vector<ChannelId> outputs;  // RD_TREE outputs of the candidate's node
  std::vector<ChannelId> stack;
  std::vector<std::uint8_t> isTarget;
  std::vector<std::uint8_t> seen;
};

/// Would releasing (d1 -> RD_TREE) at the candidate's node close a turn
/// cycle?  `perms` must already carry the tentative release.  A new
/// channel-dependency edge is (e1 -> e2) for every input e1 in `s.inputs`
/// and output e2 in `s.outputs`; a new cycle exists iff some e2 reaches
/// some e1.
bool releaseClosesCycle(const TurnPermissions& perms, DfsScratch& s) {
  const Topology& topo = perms.topology();
  s.isTarget.assign(topo.channelCount(), 0);
  for (ChannelId in : s.inputs) s.isTarget[in] = 1;

  // One DFS per output channel over the post-release dependency graph.
  s.seen.assign(topo.channelCount(), 0);
  s.stack.clear();
  for (ChannelId e2 : s.outputs) {
    if (s.seen[e2]) continue;
    s.seen[e2] = 1;
    s.stack.push_back(e2);
    while (!s.stack.empty()) {
      const ChannelId c = s.stack.back();
      s.stack.pop_back();
      const NodeId via = topo.channelDst(c);
      for (ChannelId next : topo.outputChannels(via)) {
        if (!perms.allowed(via, c, next)) continue;
        if (s.isTarget[next]) return true;
        if (!s.seen[next]) {
          s.seen[next] = 1;
          s.stack.push_back(next);
        }
      }
    }
  }
  return false;
}

}  // namespace

ReleaseStats releaseRedundantProhibitions(TurnPermissions& perms) {
  ReleaseStats stats;
  DfsScratch scratch;
  const Topology& topo = perms.topology();
  const NodeId n = topo.nodeCount();
  for (NodeId v = 0; v < n; ++v) {
    for (Dir d1 : {Dir::kLuCross, Dir::kRuCross}) {
      scratch.inputs.clear();
      scratch.outputs.clear();
      for (ChannelId out : topo.outputChannels(v)) {
        if (perms.dir(out) == Dir::kRdTree) scratch.outputs.push_back(out);
        const ChannelId in = Topology::reverseChannel(out);
        if (perms.dir(in) == d1) scratch.inputs.push_back(in);
      }
      if (scratch.inputs.empty() || scratch.outputs.empty()) continue;
      ++stats.candidateTurns;
      perms.releaseAt(v, d1, Dir::kRdTree);
      if (releaseClosesCycle(perms, scratch)) {
        perms.revokeReleaseAt(v, d1, Dir::kRdTree);
      } else {
        ++stats.releasedTurns;
      }
    }
  }
  return stats;
}

}  // namespace downup::core
