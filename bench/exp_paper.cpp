// Reproduces the paper's evaluation from one sweep: L-turn and DOWN/UP over
// trees M1/M2/M3 on 4-port and 8-port irregular networks.
//
//   Figure 8  average message latency and accepted traffic under increasing
//             offered load, one series per (ports, tree, algorithm), plus the
//             saturation summary (max accepted traffic = the paper's
//             throughput), zero-load latency and the shape verdicts.
//   Table 1   average node utilization at each algorithm's peak throughput.
//   Table 2   traffic load: the standard deviation of node utilization over
//             all switches at peak throughput (lower = better balanced).
//   Table 3   degree of hot spots: the share of total node utilization
//             carried by switches in coordinated-tree levels 0 and 1.
//   Table 4   leaf utilization: mean node utilization over the leaves of the
//             coordinated tree at peak throughput.
//
// Each table is followed by the paper's published values.
#include <fstream>
#include <iomanip>
#include <iostream>

#include "exp_common.hpp"
#include "stats/compare.hpp"

int main(int argc, char** argv) {
  using namespace downup;
  bench::ExperimentCli cli(
      "exp_paper",
      "Figure 8 and Tables 1-4: latency vs accepted traffic, node "
      "utilization, traffic load, hot spots and leaf utilization");
  const stats::ExperimentConfig config = cli.parse(argc, argv);
  const stats::ExperimentResults results = stats::runExperiment(config);
  // The Figure 8 printers leave fixed-point formatting on std::cout; each
  // table restores the stream's initial format so the paper references
  // print at default precision.
  const std::ios::fmtflags initialFlags = std::cout.flags();
  const std::streamsize initialPrecision = std::cout.precision();
  const auto restoreFormat = [&] {
    std::cout.flags(initialFlags);
    std::cout.precision(initialPrecision);
  };

  std::cout << "Figure 8. Average message latency and accepted traffic\n"
            << "(latency in clocks; traffic in flits/clock/node)\n\n";
  stats::printLatencyCurves(std::cout, results);

  std::cout << "\nSaturation summary (max accepted traffic, higher is "
               "better):\n";
  stats::printPaperTable(
      std::cout, "", results,
      [](const stats::Cell& cell) { return cell.maxAccepted.mean(); },
      /*precision=*/5);
  std::cout << "\nZero-load latency (clocks):\n";
  stats::printPaperTable(
      std::cout, "", results,
      [](const stats::Cell& cell) { return cell.zeroLoadLatency.mean(); },
      /*precision=*/1);
  std::cout << "\nShape verdicts (DOWN/UP vs L-turn, per paper claims):\n";
  stats::printShapeVerdicts(
      std::cout, stats::compareAlgorithms(results, core::Algorithm::kDownUp,
                                          core::Algorithm::kLTurn,
                                          stats::paperShapeChecks()));

  // Paper Table 1 values: higher is better; DOWN/UP > L-turn everywhere.
  static constexpr double kTable1[3][4] = {
      {0.115772, 0.123159, 0.123295, 0.147124},
      {0.108101, 0.111653, 0.121793, 0.139588},
      {0.095841, 0.092198, 0.120955, 0.126071},
  };
  restoreFormat();
  std::cout << '\n';
  stats::printPaperTable(
      std::cout, "Table 1. Average node utilization (flits/clock/port)",
      results,
      [](const stats::Cell& cell) { return cell.nodeUtilization.mean(); });
  bench::printPaperReference(std::cout, "Table 1, node utilization", kTable1);

  static constexpr double kTable2[3][4] = {
      {0.078314, 0.048727, 0.077657, 0.043990},
      {0.081115, 0.050460, 0.078501, 0.047316},
      {0.083969, 0.053392, 0.078047, 0.049796},
  };
  restoreFormat();
  std::cout << '\n';
  stats::printPaperTable(
      std::cout, "Table 2. Traffic load (std-dev of node utilization)",
      results,
      [](const stats::Cell& cell) { return cell.trafficLoad.mean(); });
  bench::printPaperReference(std::cout, "Table 2, traffic load", kTable2);

  static constexpr double kTable3[3][4] = {
      {12.85, 13.26, 12.00, 9.93},
      {14.15, 14.90, 12.13, 10.56},
      {16.18, 18.43, 12.16, 11.25},
  };
  restoreFormat();
  std::cout << '\n';
  stats::printPaperTable(
      std::cout, "Table 3. Degree of hot spots (%)", results,
      [](const stats::Cell& cell) { return cell.hotspotPercent.mean(); },
      /*precision=*/2, /*suffix=*/" %");
  bench::printPaperReference(std::cout, "Table 3, degree of hot spots",
                             kTable3, " %");

  static constexpr double kTable4[3][4] = {
      {0.07336, 0.1065, 0.082897, 0.13807},
      {0.063953, 0.093437, 0.080773, 0.131578},
      {0.050633, 0.072627, 0.078453, 0.111609},
  };
  restoreFormat();
  std::cout << '\n';
  stats::printPaperTable(
      std::cout, "Table 4. Leaf utilization (flits/clock/port)", results,
      [](const stats::Cell& cell) { return cell.leafUtilization.mean(); });
  bench::printPaperReference(std::cout, "Table 4, leaf utilization", kTable4);

  cli.maybeWriteCsv(results);
  if (!cli.csvPrefix().empty()) {
    std::ofstream md(cli.csvPrefix() + "_report.md");
    stats::writeMarkdownReport(results, md);
  }
  return 0;
}
