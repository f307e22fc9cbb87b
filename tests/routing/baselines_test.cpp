#include <gtest/gtest.h>

#include "routing/lturn.hpp"
#include "routing/path_analysis.hpp"
#include "routing/updown.hpp"
#include "routing/verify.hpp"
#include "topology/generate.hpp"
#include "topology/properties.hpp"

namespace downup::routing {
namespace {

using tree::CoordinatedTree;
using tree::TreePolicy;

struct BaselineCase {
  topo::NodeId nodes;
  unsigned ports;
  std::uint64_t seed;
  TreePolicy policy;
};

class BaselineVerifyTest : public ::testing::TestWithParam<BaselineCase> {
 protected:
  void SetUp() override {
    const auto& param = GetParam();
    util::Rng rng(param.seed);
    topo_ = std::make_unique<Topology>(
        topo::randomIrregular(param.nodes, {.maxPorts = param.ports}, rng));
    util::Rng treeRng(param.seed + 31);
    tree_ = std::make_unique<CoordinatedTree>(
        CoordinatedTree::build(*topo_, param.policy, treeRng));
  }

  std::unique_ptr<Topology> topo_;
  std::unique_ptr<CoordinatedTree> tree_;
};

TEST_P(BaselineVerifyTest, UpDownBfsIsSoundAndLive) {
  const Routing routing = buildUpDown(*topo_, *tree_);
  const VerifyReport report = verifyRouting(routing);
  EXPECT_TRUE(report.deadlockFree) << report.describe();
  EXPECT_TRUE(report.connected) << report.describe();
  EXPECT_GE(pathStretch(routing.table()).average, 1.0);
}

TEST_P(BaselineVerifyTest, UpDownDfsIsSoundAndLive) {
  const Routing routing = buildUpDownDfs(*topo_, tree_->root());
  const VerifyReport report = verifyRouting(routing);
  EXPECT_TRUE(report.deadlockFree) << report.describe();
  EXPECT_TRUE(report.connected) << report.describe();
}

TEST_P(BaselineVerifyTest, LturnIsSoundAndLive) {
  const Routing routing = buildLTurn(*topo_, *tree_);
  const VerifyReport report = verifyRouting(routing);
  EXPECT_TRUE(report.deadlockFree) << report.describe();
  EXPECT_TRUE(report.connected) << report.describe();
  EXPECT_GE(pathStretch(routing.table()).average, 1.0);
  EXPECT_GE(report.averagePathLength, topo::averageDistance(*topo_));
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetworks, BaselineVerifyTest,
    ::testing::Values(BaselineCase{12, 3, 1, TreePolicy::kM1SmallestFirst},
                      BaselineCase{24, 4, 2, TreePolicy::kM1SmallestFirst},
                      BaselineCase{24, 4, 2, TreePolicy::kM2Random},
                      BaselineCase{24, 4, 2, TreePolicy::kM3LargestFirst},
                      BaselineCase{48, 4, 3, TreePolicy::kM1SmallestFirst},
                      BaselineCase{48, 8, 4, TreePolicy::kM2Random},
                      BaselineCase{64, 4, 5, TreePolicy::kM3LargestFirst},
                      BaselineCase{96, 8, 6, TreePolicy::kM1SmallestFirst},
                      BaselineCase{128, 4, 7, TreePolicy::kM2Random},
                      BaselineCase{128, 8, 8, TreePolicy::kM3LargestFirst}));

TEST(Baselines, NamesAreStable) {
  const Topology topo = topo::ring(4);
  util::Rng rng(1);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
  EXPECT_EQ(buildUpDown(topo, ct).name(), "updown-bfs");
  EXPECT_EQ(buildUpDownDfs(topo).name(), "updown-dfs");
  EXPECT_EQ(buildLTurn(topo, ct).name(), "lturn");
}

TEST(Baselines, LturnConnectivityOnRegularTopologies) {
  util::Rng rng(1);
  for (const Topology& topo :
       {topo::ring(8), topo::mesh(4, 4), topo::torus(4, 4), topo::hypercube(4),
        topo::star(9), topo::complete(6)}) {
    const CoordinatedTree ct =
        CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
    const Routing routing = buildLTurn(topo, ct);
    const VerifyReport report = verifyRouting(routing);
    EXPECT_TRUE(report.ok()) << report.describe();
  }
}

TEST(Baselines, UpDownDfsSpreadsPathsDifferentlyThanBfs) {
  // Not a strict ordering claim — just confirm the two variants are not the
  // same routing on a topology where DFS and BFS trees differ.
  const Topology topo = topo::ring(8);
  util::Rng rng(1);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
  const Routing bfs = buildUpDown(topo, ct);
  const Routing dfs = buildUpDownDfs(topo);
  bool differs = false;
  for (NodeId s = 0; s < 8 && !differs; ++s) {
    for (NodeId d = 0; d < 8 && !differs; ++d) {
      if (bfs.table().distance(s, d) != dfs.table().distance(s, d)) {
        differs = true;
      }
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace downup::routing
