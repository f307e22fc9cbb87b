// Set-up shared by the fault_storm and serve_lookup workloads: topology,
// DOWN/UP routing built stage by stage through the modules' public
// functions, and the fabric manager serving it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fabric/manager.hpp"
#include "routing/algorithm.hpp"
#include "topology/topology.hpp"

namespace perfbench {

/// The fabric under test is one fixed topology per size; a run's --seed
/// drives what happens to it (which failures in which order, which routes
/// are walked), so runs with different seeds measure the same fabric.
inline constexpr std::uint64_t kFabricSeed = 2004;

struct FabricSetup {
  // Declaration order is destruction order in reverse: the manager goes
  // first, then the baseline table it borrows, then the topology.
  downup::topo::Topology topo{0};
  std::unique_ptr<downup::routing::Routing> baseline;
  std::unique_ptr<downup::fabric::FabricManager> manager;
  bool verified = false;  // routing::verifyRouting passed on the baseline
};

/// Generates a `switches`-switch irregular topology with `ports` ports from
/// `seed`, builds its M1 DOWN/UP routing (tree, classify, repair, release,
/// table build, verify — one span each when `spans` is set) and constructs
/// the fabric manager.  Construction is serial, as is the manager's
/// default: both workloads measure the single-threaded control plane.
std::unique_ptr<FabricSetup> buildFabric(downup::topo::NodeId switches,
                                         unsigned ports, std::uint64_t seed,
                                         downup::util::SpanRecorder* spans);

/// `count` distinct links whose single failure leaves the topology
/// connected, drawn from `seed`.
std::vector<downup::topo::LinkId> pickFailureLinks(
    const downup::topo::Topology& topo, unsigned count, std::uint64_t seed);

}  // namespace perfbench
