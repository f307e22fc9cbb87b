// SAN designer: given a cluster size and per-switch port budget, generate a
// random irregular system-area network and compare every routing algorithm
// in the library on the static qualities a designer cares about — legal
// path length, stretch over graph distance, adaptivity (average number of
// legal minimal output choices) — plus a quick saturation probe.
//
//   ./san_designer --switches 64 --ports 8 --seed 3
#include <iomanip>
#include <iostream>
#include <thread>

#include "core/downup_routing.hpp"
#include "routing/path_analysis.hpp"
#include "routing/verify.hpp"
#include "sim/engine.hpp"
#include "stats/sweep.hpp"
#include "topology/generate.hpp"
#include "topology/properties.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace downup;
  util::Cli cli("san_designer",
                "compare routing algorithms on a generated irregular SAN");
  auto switches = cli.positiveOption<int>("switches", 64, "number of switches");
  auto ports = cli.positiveOption<int>("ports", 8, "inter-switch ports per switch");
  auto seed = cli.option<std::uint64_t>("seed", 3, "topology seed");
  auto probe = cli.flag("probe", "also run a saturation probe (slower)");
  const unsigned hw = std::thread::hardware_concurrency();
  auto threads = cli.positiveOption<int>(
      "threads", static_cast<int>(hw == 0 ? 1 : hw),
      "worker threads for routing-table construction");
  cli.parse(argc, argv);
  util::ThreadPool pool(static_cast<std::size_t>(*threads));

  util::Rng rng(*seed);
  const topo::Topology topo = topo::randomIrregular(
      static_cast<topo::NodeId>(*switches),
      {.maxPorts = static_cast<unsigned>(*ports)}, rng);
  std::cout << "Generated SAN: " << topo.nodeCount() << " switches, "
            << topo.linkCount() << " links, diameter " << topo::diameter(topo)
            << ", avg distance " << std::fixed << std::setprecision(3)
            << topo::averageDistance(topo) << "\n\n";

  util::Rng treeRng(*seed + 1);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);

  std::cout << std::left << std::setw(20) << "algorithm" << std::setw(12)
            << "avgPath" << std::setw(12) << "stretch" << std::setw(12)
            << "adaptivity" << std::setw(12) << "verdict";
  if (*probe) std::cout << std::setw(12) << "satTput";
  std::cout << "\n";

  for (core::Algorithm algorithm : core::kAllAlgorithms) {
    const routing::Routing routing =
        core::buildRouting(algorithm, topo, ct, &pool);
    const routing::VerifyReport report = routing::verifyRouting(routing);
    std::cout << std::left << std::setw(20) << routing.name() << std::setw(12)
              << std::setprecision(3) << report.averagePathLength
              << std::setw(12)
              << routing::pathStretch(routing.table()).average << std::setw(12)
              << routing::averageAdaptivity(routing.table()) << std::setw(12)
              << (report.ok() ? "OK" : "BROKEN");
    if (*probe) {
      sim::SimConfig config;
      config.packetLengthFlits = 32;
      config.warmupCycles = 1000;
      config.measureCycles = 5000;
      const sim::UniformTraffic traffic(topo.nodeCount());
      const auto loads = stats::loadGrid(0.05 * *ports, 6);
      const auto sweep =
          stats::runSweep(routing.table(), traffic, loads, config);
      std::cout << std::setw(12) << std::setprecision(4)
                << stats::findSaturation(sweep).maxAccepted;
    }
    std::cout << "\n";
  }
  std::cout << "\n(avgPath in hops; stretch = legal/graph distance; "
               "adaptivity = mean legal minimal first hops";
  if (*probe) std::cout << "; satTput in flits/clock/node";
  std::cout << ")\n";
  return 0;
}
