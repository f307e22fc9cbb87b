// Quickstart: build DOWN/UP routing for the paper's Figure-1 network,
// inspect directions and prohibited turns, verify deadlock freedom, and
// route a packet.
//
//   ./quickstart [--threads N]
#include <iostream>
#include <thread>

#include "core/downup_routing.hpp"
#include "routing/verify.hpp"
#include "topology/generate.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace downup;
  util::Cli cli("quickstart", "build and inspect DOWN/UP routing for Figure 1");
  const unsigned hw = std::thread::hardware_concurrency();
  auto threads = cli.positiveOption<int>(
      "threads", static_cast<int>(hw == 0 ? 1 : hw),
      "worker threads for routing-table construction");
  cli.parse(argc, argv);
  util::ThreadPool pool(static_cast<std::size_t>(*threads));

  // 1. The irregular network of Figure 1(b): 5 switches, 6 links.
  const topo::Topology topo = topo::paperFigure1();
  std::cout << "Topology: " << topo.nodeCount() << " switches, "
            << topo.linkCount() << " links\n";

  // 2. A coordinated tree (BFS spanning tree + preorder X / level Y
  //    coordinates), built with the paper's M1 policy.
  util::Rng rng(1);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  std::cout << "\nCoordinated tree (root " << ct.root() << "):\n";
  for (topo::NodeId v = 0; v < topo.nodeCount(); ++v) {
    std::cout << "  v" << v + 1 << "  X=" << ct.x(v) << " Y=" << ct.y(v);
    if (v != ct.root()) std::cout << "  parent v" << ct.parent(v) + 1;
    std::cout << "\n";
  }

  // 3. DOWN/UP routing: Definition-5 directions, the 18 prohibited turns,
  //    cycle repair + the Phase-3 release pass, and shortest legal paths.
  const routing::Routing routing = core::buildDownUp(topo, ct, {.pool = &pool});
  std::cout << "\nChannel directions:\n";
  for (topo::ChannelId c = 0; c < topo.channelCount(); ++c) {
    std::cout << "  <v" << topo.channelSrc(c) + 1 << ",v"
              << topo.channelDst(c) + 1 << "> = "
              << routing::toString(routing.permissions().dir(c)) << "\n";
  }
  std::cout << "\nGlobally prohibited turns ("
            << routing.permissions().global().prohibitedCount() << "):\n";
  for (const auto& [from, to] : routing.permissions().global().prohibitedList()) {
    std::cout << "  " << routing::toString(from) << " -> "
              << routing::toString(to) << "\n";
  }
  std::cout << "per-node releases: " << routing.permissions().releaseCount()
            << ", per-node repair blocks: "
            << routing.permissions().blockCount() << "\n";

  // 4. Verify: acyclic channel dependencies + all-pairs connectivity.
  const routing::VerifyReport report = routing::verifyRouting(routing);
  std::cout << "\nVerification: " << report.describe() << "\n";

  // 5. Route v2 -> v3 (ids 1 -> 2) along shortest legal channels.
  std::cout << "\nShortest legal path v2 -> v3: ";
  topo::ChannelId current = routing.table().firstChannels(1, 2).front();
  std::cout << "v2";
  while (true) {
    std::cout << " -> v" << topo.channelDst(current) + 1;
    if (topo.channelDst(current) == 2) break;
    current = routing.table().nextChannels(current, 2).front();
  }
  std::cout << "  (" << routing.table().distance(1, 2) << " hops)\n";
  return 0;
}
