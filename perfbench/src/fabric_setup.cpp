#include "fabric_setup.hpp"

#include "core/ddg.hpp"
#include "core/release.hpp"
#include "core/repair.hpp"
#include "fault/schedule.hpp"
#include "routing/direction.hpp"
#include "routing/verify.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/rng.hpp"
#include "util/span_recorder.hpp"

namespace perfbench {

using namespace downup;

std::unique_ptr<FabricSetup> buildFabric(topo::NodeId switches, unsigned ports,
                                         std::uint64_t seed,
                                         util::SpanRecorder* spans) {
  auto setup = std::make_unique<FabricSetup>();
  {
    util::ScopedSpan span(spans, "topology.generate");
    util::Rng rng(seed);
    setup->topo = topo::randomIrregular(switches, {.maxPorts = ports}, rng);
  }
  const auto tree = [&] {
    util::ScopedSpan span(spans, "tree.build");
    util::Rng rng(seed + 1);
    return tree::CoordinatedTree::build(
        setup->topo, tree::TreePolicy::kM1SmallestFirst, rng);
  }();
  auto perms = [&] {
    util::ScopedSpan span(spans, "routing.classify");
    return routing::TurnPermissions(setup->topo,
                                    routing::classifyDownUp(setup->topo, tree),
                                    core::downUpTurnSet());
  }();
  {
    util::ScopedSpan span(spans, "core.repair");
    core::repairTurnCycles(perms);
  }
  {
    util::ScopedSpan span(spans, "core.release");
    core::releaseRedundantProhibitions(perms);
  }
  {
    util::ScopedSpan span(spans, "routing.table_build");
    setup->baseline =
        std::make_unique<routing::Routing>("downup", std::move(perms));
  }
  {
    util::ScopedSpan span(spans, "routing.verify");
    setup->verified = routing::verifyRouting(*setup->baseline).ok();
  }
  util::ScopedSpan span(spans, "fabric.construct");
  setup->manager = std::make_unique<fabric::FabricManager>(
      setup->topo, setup->baseline->table());
  return setup;
}

std::vector<topo::LinkId> pickFailureLinks(const topo::Topology& topo,
                                           unsigned count,
                                           std::uint64_t seed) {
  // Cumulatively non-partitioning, so each link alone is too.
  const fault::FaultSchedule picks = fault::FaultSchedule::randomLinkFailures(
      topo, count, 0, 1, seed, /*avoidPartition=*/true);
  std::vector<topo::LinkId> links;
  for (const fault::FaultEvent& event : picks.events()) {
    links.push_back(event.id);
  }
  return links;
}

}  // namespace perfbench
