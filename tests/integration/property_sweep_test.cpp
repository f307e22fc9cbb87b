// The library-wide safety net: across a grid of random irregular networks,
// port counts, tree policies and routing algorithms, every routing the
// library can build must be deadlock-free (acyclic channel dependencies)
// and fully connected, with legal paths no shorter than graph distance.
#include <gtest/gtest.h>

#include "core/downup_routing.hpp"
#include "routing/cdg.hpp"
#include "routing/path_analysis.hpp"
#include "routing/verify.hpp"
#include "topology/generate.hpp"
#include "topology/properties.hpp"

namespace downup {
namespace {

struct SweepCase {
  topo::NodeId nodes;
  unsigned ports;
  std::uint64_t seed;
  tree::TreePolicy policy;
};

std::vector<SweepCase> makeCases() {
  std::vector<SweepCase> cases;
  const tree::TreePolicy policies[] = {tree::TreePolicy::kM1SmallestFirst,
                                       tree::TreePolicy::kM2Random,
                                       tree::TreePolicy::kM3LargestFirst};
  std::uint64_t seed = 1;
  for (topo::NodeId nodes : {10u, 24u, 48u, 96u}) {
    for (unsigned ports : {3u, 4u, 8u}) {
      for (tree::TreePolicy policy : policies) {
        cases.push_back({nodes, ports, seed++, policy});
      }
    }
  }
  return cases;
}

class RoutingPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RoutingPropertyTest, EveryAlgorithmIsSoundLiveAndAtLeastMinimal) {
  const auto& param = GetParam();
  util::Rng rng(param.seed * 7919 + 13);
  const topo::Topology topo =
      topo::randomIrregular(param.nodes, {.maxPorts = param.ports}, rng);
  util::Rng treeRng(param.seed * 104729 + 7);
  const tree::CoordinatedTree ct =
      tree::CoordinatedTree::build(topo, param.policy, treeRng);

  for (core::Algorithm algorithm : core::kAllAlgorithms) {
    const routing::Routing routing = core::buildRouting(algorithm, topo, ct);
    const routing::VerifyReport report = routing::verifyRouting(routing);
    EXPECT_TRUE(report.deadlockFree)
        << core::toString(algorithm) << " on nodes=" << param.nodes
        << " ports=" << param.ports << " seed=" << param.seed << " policy="
        << tree::toString(param.policy) << ": " << report.describe();
    EXPECT_TRUE(report.connected)
        << core::toString(algorithm) << ": " << report.describe();
    EXPECT_GE(routing::pathStretch(routing.table()).average, 1.0);
  }
}

TEST_P(RoutingPropertyTest, LegalDistanceNeverBeatsGraphDistance) {
  const auto& param = GetParam();
  util::Rng rng(param.seed * 7919 + 13);
  const topo::Topology topo =
      topo::randomIrregular(param.nodes, {.maxPorts = param.ports}, rng);
  util::Rng treeRng(param.seed * 104729 + 7);
  const tree::CoordinatedTree ct =
      tree::CoordinatedTree::build(topo, param.policy, treeRng);
  const routing::Routing routing = core::buildDownUp(topo, ct);
  for (topo::NodeId s = 0; s < topo.nodeCount(); ++s) {
    const auto graphDist = topo::bfsDistances(topo, s);
    for (topo::NodeId d = 0; d < topo.nodeCount(); ++d) {
      if (s == d) continue;
      EXPECT_GE(routing.table().distance(s, d), graphDist[d]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, RoutingPropertyTest,
                         ::testing::ValuesIn(makeCases()));

struct RegularCase {
  const char* name;
  topo::Topology topology;
  tree::TreePolicy policy;
};

std::vector<RegularCase> makeRegularCases() {
  util::Rng rng(99);
  std::vector<RegularCase> cases;
  const tree::TreePolicy policies[] = {tree::TreePolicy::kM1SmallestFirst,
                                       tree::TreePolicy::kM3LargestFirst};
  for (tree::TreePolicy policy : policies) {
    cases.push_back({"mesh6x6", topo::mesh(6, 6), policy});
    cases.push_back({"torus5x5", topo::torus(5, 5), policy});
    cases.push_back({"hypercube5", topo::hypercube(5), policy});
    cases.push_back({"petersen", topo::petersen(), policy});
    cases.push_back({"dumbbell6", topo::dumbbell(6), policy});
    cases.push_back({"ring12", topo::ring(12), policy});
    cases.push_back({"star16", topo::star(16), policy});
    cases.push_back({"regular24x4", topo::randomRegular(24, 4, rng), policy});
  }
  return cases;
}

class RegularTopologyPropertyTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegularTopologyPropertyTest, EveryAlgorithmSoundAndLive) {
  static const std::vector<RegularCase> cases = makeRegularCases();
  const RegularCase& testCase = cases[GetParam()];
  util::Rng treeRng(GetParam() + 1);
  const tree::CoordinatedTree ct =
      tree::CoordinatedTree::build(testCase.topology, testCase.policy, treeRng);
  for (core::Algorithm algorithm : core::kAllAlgorithms) {
    const routing::Routing routing =
        core::buildRouting(algorithm, testCase.topology, ct);
    const routing::VerifyReport report = routing::verifyRouting(routing);
    EXPECT_TRUE(report.ok())
        << testCase.name << " / " << tree::toString(testCase.policy) << " / "
        << core::toString(algorithm) << ": " << report.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(RegularTopologies, RegularTopologyPropertyTest,
                         ::testing::Range<std::size_t>(0, 16));

TEST(RoutingProperty, PublishedRuleCyclicityIsCommonUnderM3) {
  // Quantify the DESIGN.md §4.4 finding: across random 4-port networks with
  // M3 trees, the unrepaired published rule regularly admits turn cycles
  // while the repaired builder never does.
  unsigned cyclic = 0;
  constexpr unsigned kSamples = 15;
  for (std::uint64_t seed = 1; seed <= kSamples; ++seed) {
    util::Rng rng(seed);
    const topo::Topology topo =
        topo::randomIrregular(48, {.maxPorts = 4}, rng);
    util::Rng treeRng(seed + 500);
    const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM3LargestFirst, treeRng);
    routing::TurnPermissions raw(topo, routing::classifyDownUp(topo, ct),
                                 core::downUpTurnSet());
    if (!routing::checkChannelDependencies(raw).acyclic) ++cyclic;

    const routing::Routing repaired = core::buildDownUp(topo, ct);
    EXPECT_TRUE(
        routing::checkChannelDependencies(repaired.permissions()).acyclic);
  }
  // This is an empirical observation, not a theorem: record that we saw at
  // least one cyclic instance so regressions in the checker get noticed.
  EXPECT_GE(cyclic, 1u) << "expected the published rule to misbehave on at "
                           "least one of " << kSamples << " samples";
}

}  // namespace
}  // namespace downup
