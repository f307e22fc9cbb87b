// A paper_sweep pass must reproduce stats::runExperiment exactly: same
// public calls, same seeds, same aggregation order — at any pool width.
#include <gtest/gtest.h>

#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace downup;

void expectSameStat(const util::RunningStat& a, const util::RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expectCellsEqualRunExperiment(const stats::ExperimentConfig& config) {
  const stats::ExperimentResults reference = stats::runExperiment(config);
  util::ThreadPool pool(3);
  const perfbench::SweepPass pass =
      perfbench::runSweepPass(config, &pool, nullptr);

  ASSERT_EQ(pass.results.cells.size(), reference.cells.size());
  for (std::size_t i = 0; i < reference.cells.size(); ++i) {
    const stats::Cell& a = pass.results.cells[i];
    const stats::Cell& b = reference.cells[i];
    EXPECT_EQ(a.ports, b.ports);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.algorithm, b.algorithm);
    expectSameStat(a.nodeUtilization, b.nodeUtilization);
    expectSameStat(a.trafficLoad, b.trafficLoad);
    expectSameStat(a.hotspotPercent, b.hotspotPercent);
    expectSameStat(a.leafUtilization, b.leafUtilization);
    expectSameStat(a.maxAccepted, b.maxAccepted);
    expectSameStat(a.zeroLoadLatency, b.zeroLoadLatency);
    expectSameStat(a.avgPathLength, b.avgPathLength);
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (std::size_t k = 0; k < a.curve.size(); ++k) {
      EXPECT_EQ(a.curve[k].offeredLoad, b.curve[k].offeredLoad);
      expectSameStat(a.curve[k].accepted, b.curve[k].accepted);
      expectSameStat(a.curve[k].latency, b.curve[k].latency);
    }
  }
  EXPECT_EQ(perfbench::digestResults(pass.results),
            perfbench::digestResults(reference));
  EXPECT_FALSE(pass.sims.empty());
}

TEST(PaperSweepPass, CellsEqualRunExperiment) {
  expectCellsEqualRunExperiment(perfbench::paperSweepConfig(11, true));
}

// The benchmark uses a fixed load grid; runSweepPass also reproduces the
// probe-sized grid runExperiment uses by default.
TEST(PaperSweepPass, CellsEqualRunExperimentWithSaturationProbe) {
  stats::ExperimentConfig config = perfbench::paperSweepConfig(11, true);
  config.autoLoadRange = true;
  expectCellsEqualRunExperiment(config);
}

TEST(PaperSweepPass, DigestIndependentOfWorkerCount) {
  const stats::ExperimentConfig config = perfbench::paperSweepConfig(3, true);
  const std::uint64_t serial = perfbench::digestResults(
      perfbench::runSweepPass(config, nullptr, nullptr).results);
  util::ThreadPool pool(2);
  const perfbench::SweepPass pooled =
      perfbench::runSweepPass(config, &pool, nullptr);
  EXPECT_EQ(serial, perfbench::digestResults(pooled.results));
}

TEST(PaperSweepPass, DigestSeesEveryCell) {
  const stats::ExperimentConfig config = perfbench::paperSweepConfig(3, true);
  stats::ExperimentResults results =
      perfbench::runSweepPass(config, nullptr, nullptr).results;
  const std::uint64_t before = perfbench::digestResults(results);
  results.cells.back().maxAccepted.add(0.5);
  EXPECT_NE(before, perfbench::digestResults(results));
}

}  // namespace
