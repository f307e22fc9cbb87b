// Released-set golden for the release pass: on the paper's Figure-1
// network, 56 seeded random SANs across sizes and port counts, and three
// larger fabrics (4, 8 and 16 ports), an FNV-1a digest of (candidateTurns,
// releasedTurns, every node's released-turn mask) must match the pinned
// value.  The pins were taken where two independent release
// implementations (the per-candidate DFS and an SCC/bitset condensation
// pass) agreed on every topology below.  A pass that grants a release it
// should refuse, refuses one it should grant or miscounts candidates moves
// a digest; every released set must also leave the channel-dependency
// graph acyclic.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/downup_routing.hpp"
#include "core/release.hpp"
#include "core/repair.hpp"
#include "routing/cdg.hpp"
#include "topology/generate.hpp"

namespace downup {
namespace {

class ReleaseHash {
 public:
  void mix(std::uint64_t v) {
    hash_ ^= v;
    hash_ *= 1099511628211ull;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t releaseDigest(const routing::TurnPermissions& perms,
                            const core::ReleaseStats& stats) {
  ReleaseHash h;
  h.mix(stats.candidateTurns);
  h.mix(stats.releasedTurns);
  const topo::NodeId n = perms.topology().nodeCount();
  for (topo::NodeId v = 0; v < n; ++v) {
    std::uint64_t mask = 0;
    for (unsigned a = 0; a < routing::kDirCount; ++a) {
      for (unsigned b = 0; b < routing::kDirCount; ++b) {
        if (perms.isReleasedAt(v, static_cast<routing::Dir>(a),
                               static_cast<routing::Dir>(b))) {
          mask |= std::uint64_t{1} << (a * routing::kDirCount + b);
        }
      }
    }
    h.mix(mask);
  }
  return h.value();
}

void expectGolden(const topo::Topology& topo, std::uint64_t treeSeed,
                  std::uint64_t golden) {
  util::Rng treeRng(treeSeed);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  routing::TurnPermissions perms(topo, routing::classifyDownUp(topo, ct),
                                 core::downUpTurnSet());
  core::repairTurnCycles(perms);
  const core::ReleaseStats stats = core::releaseRedundantProhibitions(perms);

  EXPECT_EQ(releaseDigest(perms, stats), golden)
      << std::hex << "actual 0x" << releaseDigest(perms, stats) << std::dec
      << " (" << stats.releasedTurns << " of " << stats.candidateTurns
      << " candidates released)";
  // Granting only cycle-free releases is the whole point of the pass.
  EXPECT_TRUE(routing::checkChannelDependencies(perms).acyclic);
}

TEST(ReleaseEquivalenceTest, PaperFigure1) {
  expectGolden(topo::paperFigure1(), 1, 0xcea0f8ee0c2c7711ull);
}

TEST(ReleaseEquivalenceTest, FiftyRandomTopologies) {
  // 56 topologies: sizes x ports x 7 seeds, in loop order.
  constexpr std::uint64_t kGolden[56] = {
      // 8 switches, 4 ports, seeds 1..7
      0x03e3871605783a25ull, 0x92ee5011f42d665bull, 0x61480b4a05783a25ull,
      0x92ee5011f42d665bull, 0x92ee5011f42d665bull, 0x61480b4a05783a25ull,
      0x61480b4a05783a25ull,
      // 8 switches, 8 ports, seeds 1..7
      0x92ee5011f42d665bull, 0x92ee5011f42d665bull, 0x92ee5011f42d665bull,
      0x92ee5011f42d665bull, 0x92ee5011f42d665bull, 0x92ee5011f42d665bull,
      0x92ee5011f42d665bull,
      // 16 switches, 4 ports, seeds 1..7
      0x9607e92a62c43e76ull, 0x3c32c993f5ec0803ull, 0xc731957ab6657fbbull,
      0x92b62187f5ec0803ull, 0xe3264868d096bb93ull, 0x7914e75ff5ec0803ull,
      0x3f69a2c02fd930c5ull,
      // 16 switches, 8 ports, seeds 1..7
      0x22bffbde62c43e76ull, 0x55002eebf5ec0803ull, 0x28c27e2722c092d9ull,
      0x59e20e4b22c092d9ull, 0xf765f6042fd930c5ull, 0x7914e75ff5ec0803ull,
      0xf765f6042fd930c5ull,
      // 32 switches, 4 ports, seeds 1..7
      0x9cb9b116b1c28a42ull, 0xcf691602b1c28a42ull, 0x2cf7cc646669bbc2ull,
      0x7c1946ab53db77beull, 0xf1cf663d4ed956f5ull, 0xb9e36d2ab1c28a42ull,
      0x52c0e8ba36976ab3ull,
      // 32 switches, 8 ports, seeds 1..7
      0x6834828990315dceull, 0x0ff4abac3c4b12f1ull, 0x2c5a71cd82fc4158ull,
      0xdde66d3863ea6853ull, 0x591071c4a7c1c29bull, 0xfa032a02b1c28a42ull,
      0x5a26ce3cee187052ull,
      // 48 switches, 4 ports, seeds 1..7
      0x895beac8ca89373eull, 0x58929062c99b6731ull, 0x3219695acb77074bull,
      0xb7d23bb2cb77074bull, 0xf064ddd972208482ull, 0x0ed60f44ca89373eull,
      0xce31f68ceba17919ull,
      // 48 switches, 8 ports, seeds 1..7
      0x4ac66f6b76c594c3ull, 0x769e30bd54bf82dbull, 0x86390ed972208482ull,
      0x86d076edb66f0c35ull, 0x27f508d3b9387c5cull, 0xfb6a8a91569b22f5ull,
      0x927655c376c594c3ull,
  };
  int checked = 0;
  for (const topo::NodeId switches : {8u, 16u, 32u, 48u}) {
    for (const unsigned ports : {4u, 8u}) {
      for (std::uint64_t seed = 1; seed <= 7; ++seed) {
        SCOPED_TRACE(testing::Message() << switches << " switches, " << ports
                                        << " ports, seed " << seed);
        util::Rng rng(seed * 1000 + switches);
        const topo::Topology topo =
            topo::randomIrregular(switches, {.maxPorts = ports}, rng);
        expectGolden(topo, seed, kGolden[checked]);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 56);
}

TEST(ReleaseEquivalenceTest, LargerFabrics) {
  struct Case {
    topo::NodeId switches;
    unsigned ports;
    std::uint64_t golden;
  };
  for (const Case& c : {Case{256, 4, 0x02070bc122a19e3aull},
                        Case{128, 8, 0xec6e1b5befca20a1ull},
                        Case{64, 16, 0x6b72ce4725b7e382ull}}) {
    SCOPED_TRACE(testing::Message()
                 << c.switches << " switches, " << c.ports << " ports");
    util::Rng rng(c.switches * 100 + c.ports);
    expectGolden(topo::randomIrregular(c.switches, {.maxPorts = c.ports}, rng),
                 3, c.golden);
  }
}

}  // namespace
}  // namespace downup
