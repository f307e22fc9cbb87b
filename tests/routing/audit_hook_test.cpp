// The process-global table-audit hook (routing/audit.hpp): an installed
// hook sees every table construction, and clearTableAuditHook removes it
// only for the context that installed it.
#include "routing/audit.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>

#include "routing/direction.hpp"
#include "routing/routing_table.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/rng.hpp"

namespace downup::routing {
namespace {

struct BuildCounter {
  std::size_t builds = 0;

  static void hook(void* ctx, const TurnPermissions&, const RoutingTable&,
                   std::span<const std::uint64_t>) {
    ++static_cast<BuildCounter*>(ctx)->builds;
  }
};

void buildOnce() {
  const Topology topo = topo::ring(5);
  util::Rng rng(1);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  const TurnPermissions perms(topo, classifyUpDown(topo, ct), upDownTurnSet());
  (void)RoutingTable::build(perms);
}

TEST(TableAuditHook, InstalledHookSeesEveryBuild) {
  BuildCounter counter;
  setTableAuditHook(&BuildCounter::hook, &counter);
  buildOnce();
  buildOnce();
  setTableAuditHook(nullptr, nullptr);
  buildOnce();
  EXPECT_EQ(counter.builds, 2u);
}

TEST(TableAuditHook, ClearingByItsOwnerRemovesTheHook) {
  BuildCounter counter;
  setTableAuditHook(&BuildCounter::hook, &counter);
  clearTableAuditHook(&counter);
  buildOnce();
  EXPECT_EQ(counter.builds, 0u);
}

TEST(TableAuditHook, ClearingByAnotherContextKeepsTheHook) {
  BuildCounter owner;
  BuildCounter bystander;
  setTableAuditHook(&BuildCounter::hook, &owner);
  clearTableAuditHook(&bystander);
  buildOnce();
  clearTableAuditHook(&owner);
  EXPECT_EQ(owner.builds, 1u);
  EXPECT_EQ(bystander.builds, 0u);
}

}  // namespace
}  // namespace downup::routing
