// Ablation: root choice of the coordinated tree.  The tree-policy half of
// the ablation (Remark 1: M1 smallest-id preorder vs M2 random vs M3
// largest-id) is the M1/M2/M3 rows of exp_paper's saturation summary and
// Table 3, which come from the same default sweep.
#include <iomanip>
#include <iostream>

#include "core/downup_routing.hpp"
#include "exp_common.hpp"
#include "topology/generate.hpp"

int main(int argc, char** argv) {
  using namespace downup;
  bench::ExperimentCli cli("exp_ablation_tree",
                           "Ablation: coordinated-tree root choice",
                           /*writesCsv=*/false);
  const stats::ExperimentConfig config = cli.parse(argc, argv);

  // Average legal path length of DOWN/UP with the tree rooted at 16 evenly
  // spaced switches of one sample topology.
  const unsigned ports = config.portConfigs.front();
  util::Rng rng(config.baseSeed + 99);
  const topo::Topology topo = topo::randomIrregular(
      config.switches, {.maxPorts = ports}, rng);
  double best = 1e30;
  double worst = 0.0;
  topo::NodeId bestRoot = 0;
  const topo::NodeId step =
      std::max<topo::NodeId>(1, topo.nodeCount() / 16);  // sample 16 roots
  for (topo::NodeId root = 0; root < topo.nodeCount(); root += step) {
    util::Rng treeRng(1);
    const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, treeRng, root);
    const double length =
        core::buildDownUp(topo, ct).table().averagePathLength();
    if (length < best) {
      best = length;
      bestRoot = root;
    }
    worst = std::max(worst, length);
  }
  std::cout << "Root-choice sensitivity (DOWN/UP avg path length over "
            << "sampled roots, " << ports << "-port sample): best "
            << std::fixed << std::setprecision(4) << best << " (root "
            << bestRoot << "), worst " << worst << "\n";
  return 0;
}
