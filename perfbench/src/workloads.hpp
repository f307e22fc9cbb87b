// The benchmark's three workloads.  Each generates its inputs from
// Options::seed, measures for Options::seconds, checks its outputs and
// fills the report with every end-to-end metric (untraced) or every
// per-layer metric (traced).
#pragma once

#include <cstdint>
#include <vector>

#include "report.hpp"
#include "stats/experiment.hpp"

namespace downup::util {
class ThreadPool;
class SpanRecorder;
}  // namespace downup::util

namespace perfbench {

void runPaperSweep(const Options& options, Report& report);
void runFaultStorm(const Options& options, Report& report);
void runServeLookup(const Options& options, Report& report);

// --- paper_sweep internals, exposed for the benchmark's own tests ---

/// The paper's methodology at benchmark size: 64 switches, 4- and 8-port,
/// M1/M2/M3, L-turn and DOWN/UP, uniform traffic, 128-flit packets.
downup::stats::ExperimentConfig paperSweepConfig(std::uint64_t seed,
                                                 bool tiny);

/// One simulation of one load point, as the sweep loop timed it.
struct SimSample {
  double ms = 0.0;
  double cpuS = 0.0;  // the simulating thread's CPU time
  std::uint64_t cycles = 0;
  std::size_t gridIndex = 0;  // its load point in the cell's grid
  bool lowest = false;  // its cell's lowest load (zero-load latency point)
  bool peak = false;    // its cell's peak-throughput (saturation) load
  bool deadlocked = false;
};

struct SweepPass {
  downup::stats::ExperimentResults results;
  std::vector<SimSample> sims;
};

/// Runs the experiment `config` describes with the same public calls
/// stats::runExperiment makes (topology -> core::buildRouting ->
/// stats::probeSaturationLoad when config.autoLoadRange -> per-load-point
/// simulation with the SweepOptions stop rule), fanned out over `pool` one
/// cell at a time (nullptr runs serially).  The aggregated results equal
/// runExperiment's at any pool width.  `spans` (nullable) records one span
/// per public call and "other" spans around the benchmark's own steps.
SweepPass runSweepPass(const downup::stats::ExperimentConfig& config,
                       downup::util::ThreadPool* pool,
                       downup::util::SpanRecorder* spans);

/// FNV-1a digest over every cell's aggregated statistics and curve.
std::uint64_t digestResults(const downup::stats::ExperimentResults& results);

}  // namespace perfbench
