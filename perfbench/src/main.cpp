// perfbench: the repository benchmark program.
//
//   perfbench --workload <paper_sweep|fault_storm|serve_lookup> --seed <n>
//             --seconds <s> --trace <0|1> [--size tiny] [--out-dir <dir>]
//             [--expect-digest <hex>] [--plant <what>]
//
// Prints a human-readable report and, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (which also
// writes the run's spans as obs_spans/2 JSONL under --out-dir).  Exits 1
// when any correctness check failed, 2 on bad usage.
#include <cstdlib>
#include <iostream>
#include <string>

#include "report.hpp"
#include "util/alloc_hooks.hpp"  // span allocation attribution (one TU only)
#include "workloads.hpp"

namespace {

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <paper_sweep|fault_storm|"
               "serve_lookup> --seed <n> --seconds <s> --trace <0|1> "
               "[--size tiny|full] [--out-dir <dir>] "
               "[--expect-digest <hex>] [--plant <what>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--size") {
        if (value != "tiny" && value != "full") return usage("bad --size");
        options.tiny = value == "tiny";
      } else if (arg == "--out-dir") {
        options.outDir = value;
      } else if (arg == "--expect-digest") {
        options.expectDigest = value;
      } else if (arg == "--plant") {
        options.plant = value;
      } else {
        return usage("unknown option " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (options.seconds <= 0.0) {
    return usage("--seconds must be positive");
  }

  perfbench::Report report;
  perfbench::writeRunHeader(report, options);
  const perfbench::SpanCalibration& probe = perfbench::spanCalibration();
  report.header("emptySpan", std::to_string(probe.costNs) + " ns per span, " +
                                 std::to_string(probe.biasNs) +
                                 " ns recorded duration");
  if (options.trace) report.metric("trace.span_cost_ns", probe.costNs);
  try {
    if (options.workload == "paper_sweep") {
      perfbench::runPaperSweep(options, report);
    } else if (options.workload == "fault_storm") {
      perfbench::runFaultStorm(options, report);
    } else if (options.workload == "serve_lookup") {
      perfbench::runServeLookup(options, report);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
  }
  report.print(options.trace ? perfbench::Kind::kPerLayer
                             : perfbench::Kind::kEndToEnd);
  return report.correct() ? 0 : 1;
}
