#include "routing/cdg.hpp"

#include <cstdint>

namespace downup::routing {

namespace {

enum class Mark : std::uint8_t { kWhite, kGray, kBlack };

inline bool aliveBit(std::span<const std::uint64_t> mask, ChannelId c) noexcept {
  return mask.empty() || ((mask[c >> 6] >> (c & 63)) & 1u);
}

/// Iterative DFS that records the gray path so a cycle witness can be
/// reconstructed without recursion (channel counts reach a few thousand).
struct CycleFinder {
  const TurnPermissions& perms;
  const Topology& topo;
  std::span<const std::uint64_t> alive;
  std::vector<Mark> mark;
  std::vector<ChannelId> path;  // current gray stack, in order

  CycleFinder(const TurnPermissions& p, std::span<const std::uint64_t> a)
      : perms(p),
        topo(p.topology()),
        alive(a),
        mark(topo.channelCount(), Mark::kWhite) {}

  /// Returns true (and fills `cycle`) if a cycle is reachable from `start`.
  bool run(ChannelId start, std::vector<ChannelId>& cycle) {
    struct Frame {
      ChannelId channel;
      std::size_t nextIdx;  // index into outputs of dst(channel)
    };
    std::vector<Frame> stack;
    mark[start] = Mark::kGray;
    path.push_back(start);
    stack.push_back({start, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const NodeId via = topo.channelDst(frame.channel);
      const auto outputs = topo.outputChannels(via);
      bool descended = false;
      while (frame.nextIdx < outputs.size()) {
        const ChannelId next = outputs[frame.nextIdx++];
        if (!aliveBit(alive, next) ||
            !perms.allowed(via, frame.channel, next)) {
          continue;
        }
        if (mark[next] == Mark::kGray) {
          // Found a cycle: the suffix of `path` starting at `next`.
          for (std::size_t i = 0; i < path.size(); ++i) {
            if (path[i] == next) {
              cycle.assign(path.begin() + static_cast<std::ptrdiff_t>(i),
                           path.end());
              return true;
            }
          }
          cycle = path;  // defensive; should be unreachable
          return true;
        }
        if (mark[next] == Mark::kWhite) {
          mark[next] = Mark::kGray;
          path.push_back(next);
          stack.push_back({next, 0});
          descended = true;
          break;
        }
      }
      if (!descended && frame.nextIdx >= outputs.size()) {
        mark[frame.channel] = Mark::kBlack;
        path.pop_back();
        stack.pop_back();
      }
    }
    return false;
  }
};

}  // namespace

CdgResult checkChannelDependencies(
    const TurnPermissions& perms, std::span<const std::uint64_t> channelAlive) {
  CdgResult result;
  CycleFinder finder(perms, channelAlive);
  const auto channels = perms.topology().channelCount();
  for (ChannelId c = 0; c < channels; ++c) {
    if (finder.mark[c] != Mark::kWhite || !aliveBit(channelAlive, c)) continue;
    if (finder.run(c, result.cycle)) {
      result.acyclic = false;
      return result;
    }
  }
  result.acyclic = true;
  return result;
}

bool channelReachable(const TurnPermissions& perms, ChannelId from,
                      ChannelId to) {
  const Topology& topo = perms.topology();
  std::vector<bool> seen(topo.channelCount(), false);
  std::vector<ChannelId> stack;
  seen[from] = true;
  stack.push_back(from);
  while (!stack.empty()) {
    const ChannelId c = stack.back();
    stack.pop_back();
    const NodeId via = topo.channelDst(c);
    for (ChannelId next : topo.outputChannels(via)) {
      if (!perms.allowed(via, c, next)) continue;
      if (next == to) return true;  // before the seen-check: to may equal from
      if (seen[next]) continue;
      seen[next] = true;
      stack.push_back(next);
    }
  }
  return false;
}

}  // namespace downup::routing
