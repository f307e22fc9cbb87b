// Path tracing: run a short simulation with tracing enabled, print a few
// packets' actual channel walks with per-hop directions, dump one switch's
// firmware-style turn-permission table, and compare one packet pair's
// per-hop turns under DOWN/UP vs L-turn routing.
//
// With the observability flags the same run also produces machine-readable
// artifacts: --trace-out writes a Chrome trace_event JSON (open it in
// https://ui.perfetto.dev or chrome://tracing), --trace-jsonl the raw event
// log, --metrics-out the turn/level/blocked-cycle metrics JSONL,
// --timeseries-out the windowed rate counter tracks (Perfetto JSON).
//
//   ./trace_paths --switches 16 --ports 4 --packets 6 --trace-out trace.json
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "core/downup_routing.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "routing/serialize.hpp"
#include "sim/network.hpp"
#include "topology/generate.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace downup;

// Injects src -> dst into a fresh single-packet deterministic run and
// prints the turn taken at every hop, from the packet tracer's channel path.
void traceOnePacket(const routing::Routing& routing, topo::NodeId src,
                    topo::NodeId dst) {
  const topo::Topology& topo = routing.table().topology();
  obs::Observer observer({.traceSampleEvery = 1}, topo);
  sim::SimConfig config;
  config.packetLengthFlits = 4;
  config.warmupCycles = 0;
  config.measureCycles = 1u << 20;  // stepped manually
  config.adaptiveSelection = false;  // fixed route: the table's first choice
  config.observer = &observer;
  const sim::UniformTraffic traffic(topo.nodeCount());
  sim::WormholeNetwork net(routing.table(), traffic, 0.0, config);
  const sim::PacketId pid = net.injectPacket(src, dst);
  for (int i = 0; i < 100000 && net.packetsEjected() < 1; ++i) net.step();

  std::string_view from = "INJECT";
  for (topo::ChannelId c : observer.tracer()->channelPath(pid)) {
    const std::string_view to = routing::toString(routing.permissions().dir(c));
    std::cout << "    node " << topo.channelSrc(c) << "  T(" << from << " -> "
              << to << ")  channel to " << topo.channelDst(c) << "\n";
    from = to;
  }
  std::cout << "    node " << dst << "  T(" << from << " -> EJECT)\n";
  std::cout << "    ejected at cycle " << net.packetEjectTime(pid) << " ("
            << routing.table().distance(src, dst) << " legal-minimum hops)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace downup;
  util::Cli cli("trace_paths",
                "trace simulated packets hop by hop through DOWN/UP routing");
  auto switches = cli.positiveOption<int>("switches", 16, "number of switches");
  auto ports = cli.positiveOption<int>("ports", 4, "ports per switch");
  auto seed = cli.option<std::uint64_t>("seed", 5, "seed");
  auto packets = cli.positiveOption<int>("packets", 6, "packets to print");
  auto traceOut = cli.option<std::string>(
      "trace-out", "", "write a Chrome trace_event JSON (Perfetto) here");
  auto traceJsonl =
      cli.option<std::string>("trace-jsonl", "", "write the trace JSONL here");
  auto metricsOut = cli.option<std::string>(
      "metrics-out", "", "write the metrics JSONL here");
  auto timeseriesOut = cli.option<std::string>(
      "timeseries-out", "",
      "write windowed time-series counter tracks (Perfetto JSON) here");
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
  util::Rng treeRng(*seed + 1);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing routing = core::buildDownUp(topo, ct, {.pool = &pool});

  // Every 4th packet is traced: the printed walks are the first sampled
  // packets to eject, without buffering the whole run.
  obs::ObsOptions obsOptions{.metrics = true, .traceSampleEvery = 4};
  if (!timeseriesOut->empty()) obsOptions.timeseriesWindowCycles = 256;
  obs::Observer observer(obsOptions, topo, &ct);
  sim::SimConfig config;
  config.packetLengthFlits = 16;
  config.warmupCycles = 0;
  config.measureCycles = 100000;
  config.seed = *seed + 2;
  config.observer = &observer;
  const sim::UniformTraffic traffic(topo.nodeCount());
  sim::WormholeNetwork net(routing.table(), traffic, 0.1, config);
  const obs::PacketTracer& tracer = *observer.tracer();
  const auto ejected = [&net](const obs::PacketTracer::PacketInfo& packet) {
    return net.packetEjectTime(packet.packet) !=
           sim::WormholeNetwork::kNeverEjected;
  };
  const auto sampledEjected = [&] {
    return std::count_if(tracer.packets().begin(), tracer.packets().end(),
                         ejected);
  };
  const auto wanted = static_cast<std::ptrdiff_t>(*packets);
  for (int i = 0; i < 20000 && sampledEjected() < wanted; ++i) net.step();

  std::cout << "Traced DOWN/UP packet walks (direction per hop):\n\n";
  std::ptrdiff_t printed = 0;
  for (const auto& packet : tracer.packets()) {
    if (printed == wanted) break;
    if (!ejected(packet)) continue;
    const auto path = tracer.channelPath(packet.packet);
    std::cout << "packet " << packet.packet << "  " << packet.src;
    for (topo::ChannelId c : path) {
      std::cout << " -[" << routing::toString(routing.permissions().dir(c))
                << "]-> " << topo.channelDst(c);
    }
    std::cout << "\n  " << path.size() << " hops (legal minimum "
              << routing.table().distance(packet.src, packet.dst)
              << "), latency "
              << net.packetEjectTime(packet.packet) - packet.genCycle + 1
              << " clocks\n";
    ++printed;
  }

  // The busiest switch's firmware table.
  topo::NodeId busiest = 0;
  for (topo::NodeId v = 1; v < topo.nodeCount(); ++v) {
    if (topo.degree(v) > topo.degree(busiest)) busiest = v;
  }
  std::cout << "\nSwitch turn-permission table (busiest switch):\n\n";
  routing::exportSwitchConfig(routing, busiest, std::cout);

  // One packet pair, DOWN/UP vs L-turn: same endpoints, per-hop turns side
  // by side — the concrete view of how the two turn models steer traffic
  // differently around the root.
  topo::NodeId pairSrc = 0;
  topo::NodeId pairDst = 1;
  std::uint32_t best = 0;
  for (topo::NodeId a = 0; a < topo.nodeCount(); ++a) {
    for (topo::NodeId b = 0; b < topo.nodeCount(); ++b) {
      const std::uint32_t d = routing.table().distance(a, b);
      if (a != b && d != routing::kNoPath && d > best) {
        best = d;
        pairSrc = a;
        pairDst = b;
      }
    }
  }
  const routing::Routing lturn =
      core::buildRouting(core::Algorithm::kLTurn, topo, ct, &pool);
  std::cout << "\nPacket pair " << pairSrc << " <-> " << pairDst
            << ", per-hop turns:\n";
  for (const auto& [name, r] :
       {std::pair<const char*, const routing::Routing*>{"downup", &routing},
        std::pair<const char*, const routing::Routing*>{"lturn", &lturn}}) {
    std::cout << "\n  [" << name << "] " << pairSrc << " -> " << pairDst
              << ":\n";
    traceOnePacket(*r, pairSrc, pairDst);
    std::cout << "  [" << name << "] " << pairDst << " -> " << pairSrc
              << ":\n";
    traceOnePacket(*r, pairDst, pairSrc);
  }

  if (!traceOut->empty()) {
    std::ofstream out(*traceOut);
    obs::writeChromeTrace(*observer.tracer(), &topo, out);
    std::cout << "\nwrote Chrome trace (open in Perfetto): " << *traceOut
              << "\n";
  }
  if (!traceJsonl->empty()) {
    std::ofstream out(*traceJsonl);
    obs::writeTraceJsonl(*observer.tracer(), &topo, out);
    std::cout << "wrote trace JSONL: " << *traceJsonl << "\n";
  }
  if (!metricsOut->empty()) {
    std::ofstream out(*metricsOut);
    obs::writeMetricsJsonl(*observer.metrics(), &topo, net.now(), out);
    std::cout << "wrote metrics JSONL: " << *metricsOut << "\n";
  }
  if (!timeseriesOut->empty()) {
    observer.timeseries()->finish(net.now());
    std::ofstream out(*timeseriesOut);
    obs::writeTimeSeriesChromeTrace(*observer.timeseries(), out);
    std::cout << "wrote time-series counter tracks (open in Perfetto): "
              << *timeseriesOut << "\n";
  }
  return 0;
}
