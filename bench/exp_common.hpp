// Shared command-line plumbing for the experiment benches.  Every bench
// runs a reduced-but-representative configuration by default (finishes in
// seconds on one core) and switches to the paper's 128-switch / 10-sample
// setup with --full.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <string>
#include <thread>

#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "sim/config.hpp"
#include "stats/experiment.hpp"
#include "stats/report.hpp"
#include "topology/topology.hpp"
#include "util/cli.hpp"

namespace downup::bench {

class ExperimentCli {
 public:
  /// `writesCsv` registers --csv; a driver that writes no CSV leaves it
  /// false, so the flag is rejected as unknown rather than ignored.
  ExperimentCli(std::string program, std::string description,
                bool writesCsv = true)
      : cli_(std::move(program), std::move(description)) {
    switches_ = cli_.positiveOption<int>("switches", 32, "number of switches (paper: 128)");
    samples_ = cli_.positiveOption<int>("samples", 3,
                                "random topologies per configuration (paper: 10)");
    ports_ = cli_.option<int>("ports", 0,
                              "restrict to one port count (4 or 8); 0 = both");
    loadPoints_ = cli_.positiveOption<int>("load-points", 8, "offered-load sweep points");
    maxLoadPerPort_ = cli_.option<double>(
        "max-load-per-port", 0.06,
        "sweep upper bound = this x ports (flits/node/clk)");
    packetLen_ = cli_.positiveOption<int>("packet-flits", 128, "packet length in flits");
    warmup_ = cli_.option<int>("warmup", 3000, "warm-up cycles");
    measure_ = cli_.positiveOption<int>("measure", 12000, "measured cycles");
    seed_ = cli_.option<std::uint64_t>("seed", 2004, "base RNG seed");
    if (writesCsv) {
      csv_ = cli_.option<std::string>(
          "csv", "", "CSV output path prefix (empty = no CSV files)");
    }
    threads_ = cli_.positiveOption<int>(
        "threads", defaultThreads(),
        "worker threads for parallel sweeps and table construction");
    full_ = cli_.flag("full",
                      "run the paper-scale configuration "
                      "(128 switches, 10 samples, long windows)");
    quiet_ = cli_.flag("quiet", "suppress progress lines on stderr");
  }

  util::Cli& cli() { return cli_; }

  /// Default worker-thread count: every hardware thread (results are
  /// identical at any width — parallelism only partitions deterministic
  /// work).  hardware_concurrency() may report 0; clamp to 1.
  static int defaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(hw == 0 ? 1 : hw);
  }

  stats::ExperimentConfig parse(int argc, const char* const* argv) {
    cli_.parse(argc, argv);
    stats::ExperimentConfig config;
    if (*full_) {
      config = stats::ExperimentConfig::paperScale();
    } else {
      config.switches = static_cast<topo::NodeId>(*switches_);
      config.samples = static_cast<unsigned>(*samples_);
      config.loadPoints = static_cast<unsigned>(*loadPoints_);
      config.sim.warmupCycles = static_cast<std::uint32_t>(*warmup_);
      config.sim.measureCycles = static_cast<std::uint32_t>(*measure_);
      config.sim.packetLengthFlits = static_cast<std::uint32_t>(*packetLen_);
    }
    config.maxLoadPerPort = *maxLoadPerPort_;
    config.baseSeed = *seed_;
    config.verbose = !*quiet_;
    config.threads = static_cast<unsigned>(*threads_);
    if (*ports_ == 4 || *ports_ == 8) {
      config.portConfigs = {static_cast<unsigned>(*ports_)};
    }
    return config;
  }

  const std::string& csvPrefix() const {
    static const std::string kEmpty;
    return csv_ ? *csv_ : kEmpty;
  }

  /// Emits the standard CSV pair when --csv was given.
  void maybeWriteCsv(const stats::ExperimentResults& results) const {
    if (csvPrefix().empty()) return;
    stats::writeMetricsCsv(results, *csv_ + "_metrics.csv");
    stats::writeCurvesCsv(results, *csv_ + "_curves.csv");
  }

 private:
  util::Cli cli_;
  std::shared_ptr<int> switches_;
  std::shared_ptr<int> samples_;
  std::shared_ptr<int> ports_;
  std::shared_ptr<int> loadPoints_;
  std::shared_ptr<double> maxLoadPerPort_;
  std::shared_ptr<int> packetLen_;
  std::shared_ptr<int> warmup_;
  std::shared_ptr<int> measure_;
  std::shared_ptr<std::uint64_t> seed_;
  std::shared_ptr<std::string> csv_;
  std::shared_ptr<int> threads_;
  std::shared_ptr<bool> full_;
  std::shared_ptr<bool> quiet_;
};

/// Per-bench defaults for ScenarioCli.  Set `samples` to 0 to omit the
/// --samples option, `topology` to false to omit --switches/--ports (the
/// mesh bench sizes its own grid), and `obsOutputs` to false for benches
/// whose inner loop is a load sweep with no single instrumentable run.
struct ScenarioDefaults {
  int switches = 32;
  int ports = 4;
  int samples = 0;
  std::uint64_t seed = 2004;
  int packetFlits = 64;
  int warmup = 2000;
  int measure = 8000;
  bool topology = true;
  bool obsOutputs = true;
};

/// Shared flags for the single-scenario benches (the ones that run a fixed
/// set of configurations rather than ExperimentCli's full load sweep):
/// topology size, simulation window, threads, and the uniform observability
/// outputs --metrics-out / --timeseries-out every instrumented bench
/// accepts.  Bench-specific options register on `cli()` before `parse()`.
class ScenarioCli {
 public:
  ScenarioCli(std::string program, std::string description,
              ScenarioDefaults defaults = {})
      : cli_(std::move(program), std::move(description)),
        defaults_(defaults) {
    if (defaults.topology) {
      switches_ = cli_.positiveOption<int>("switches", defaults.switches,
                                           "number of switches");
      ports_ = cli_.positiveOption<int>("ports", defaults.ports,
                                        "ports per switch");
    }
    if (defaults.samples > 0) {
      samples_ = cli_.positiveOption<int>("samples", defaults.samples,
                                          "random topologies");
    }
    seed_ = cli_.option<std::uint64_t>("seed", defaults.seed, "base seed");
    packetFlits_ = cli_.positiveOption<int>("packet-flits",
                                            defaults.packetFlits,
                                            "packet length in flits");
    warmup_ = cli_.option<int>("warmup", defaults.warmup, "warm-up cycles");
    measure_ = cli_.positiveOption<int>("measure", defaults.measure,
                                        "measured cycles");
    threads_ = cli_.positiveOption<int>(
        "threads", ExperimentCli::defaultThreads(),
        "worker threads for table construction and parallel sweeps");
    if (defaults.obsOutputs) {
      metricsOut_ = cli_.option<std::string>(
          "metrics-out", "",
          "metrics JSONL path prefix (.LABEL.jsonl appended)");
      timeseriesOut_ = cli_.option<std::string>(
          "timeseries-out", "",
          "time-series path prefix (.LABEL.{csv,jsonl,trace.json} appended)");
      timeseriesWindow_ = cli_.positiveOption<int>(
          "timeseries-window", 1024, "time-series window length in cycles");
      waitforPeriod_ = cli_.option<int>(
          "waitfor-period", 0,
          "wait-for-graph sample period in cycles (0 = off)");
      spansOut_ = cli_.option<std::string>(
          "spans-out", "",
          "control-plane span path prefix (.LABEL.{jsonl,trace.json} "
          "appended)");
    }
  }

  util::Cli& cli() { return cli_; }

  void parse(int argc, const char* const* argv) { cli_.parse(argc, argv); }

  int switches() const { return switches_ ? *switches_ : defaults_.switches; }
  int ports() const { return ports_ ? *ports_ : defaults_.ports; }
  int samples() const { return samples_ ? *samples_ : defaults_.samples; }
  std::uint64_t seed() const { return *seed_; }
  int packetFlits() const { return *packetFlits_; }
  int warmup() const { return *warmup_; }
  int measure() const { return *measure_; }
  int threads() const { return *threads_; }
  const std::string& metricsOut() const {
    static const std::string kEmpty;
    return metricsOut_ ? *metricsOut_ : kEmpty;
  }
  const std::string& timeseriesOut() const {
    static const std::string kEmpty;
    return timeseriesOut_ ? *timeseriesOut_ : kEmpty;
  }
  int timeseriesWindow() const {
    return timeseriesWindow_ ? *timeseriesWindow_ : 1024;
  }
  int waitforPeriod() const {
    return waitforPeriod_ ? *waitforPeriod_ : 0;
  }
  const std::string& spansOut() const {
    static const std::string kEmpty;
    return spansOut_ ? *spansOut_ : kEmpty;
  }

  /// SimConfig with the shared window/packet knobs filled in.  The seed is
  /// left at its default — benches derive per-sample seeds from seed().
  sim::SimConfig simConfig() const {
    sim::SimConfig config;
    config.packetLengthFlits = static_cast<std::uint32_t>(*packetFlits_);
    config.warmupCycles = static_cast<std::uint32_t>(*warmup_);
    config.measureCycles = static_cast<std::uint64_t>(*measure_);
    return config;
  }

  /// True when any --metrics-out / --timeseries-out / --spans-out artifact
  /// was requested (attaching an observer is only worth the hook overhead
  /// then).
  bool wantsObserver() const {
    return metricsOut_ && timeseriesOut_ &&
           (!metricsOut_->empty() || !timeseriesOut_->empty() ||
            !spansOut_->empty());
  }

  /// Enables the collectors the requested outputs need.
  void applyObsOutputs(obs::ObsOptions& options) const {
    if (!metricsOut_) return;
    if (!metricsOut_->empty()) options.metrics = true;
    if (!timeseriesOut_->empty()) {
      options.timeseriesWindowCycles =
          static_cast<std::uint32_t>(*timeseriesWindow_);
    }
    options.waitForSamplePeriod = static_cast<std::uint32_t>(
        *waitforPeriod_ < 0 ? 0 : *waitforPeriod_);
    if (!spansOut_->empty()) options.controlPlaneSpans = true;
  }

  /// Writes the uniform artifacts for one labelled run: the metrics JSONL
  /// and the time-series CSV + JSONL + Perfetto trace, each only when its
  /// prefix option was given and its collector is attached.  `finishCycle`
  /// (usually net.now()) flushes the partial last window first.
  void writeObsArtifacts(obs::Observer& observer, const topo::Topology* topo,
                         std::uint64_t measuredCycles,
                         std::uint64_t finishCycle,
                         const std::string& label) const {
    if (!metricsOut_) return;
    const auto dotted = [&label](const std::string& prefix,
                                 const char* suffix) {
      return label.empty() ? prefix + suffix : prefix + "." + label + suffix;
    };
    if (!metricsOut_->empty() && observer.metrics() != nullptr) {
      const std::string path = dotted(*metricsOut_, ".jsonl");
      std::ofstream out(path);
      obs::writeMetricsJsonl(*observer.metrics(), topo, measuredCycles, out);
      std::cout << "wrote " << path << "\n";
    }
    if (!timeseriesOut_->empty() && observer.timeseries() != nullptr) {
      obs::TimeSeriesCollector& series = *observer.timeseries();
      series.finish(finishCycle);
      {
        std::ofstream out(dotted(*timeseriesOut_, ".csv"));
        obs::writeTimeSeriesCsv(series, out);
      }
      {
        std::ofstream out(dotted(*timeseriesOut_, ".jsonl"));
        obs::writeTimeSeriesJsonl(series, observer.waitFor(), out);
      }
      {
        std::ofstream out(dotted(*timeseriesOut_, ".trace.json"));
        obs::writeTimeSeriesChromeTrace(series, out);
      }
      std::cout << "wrote " << dotted(*timeseriesOut_, ".{csv,jsonl,trace.json}")
                << "\n";
    }
    if (!spansOut_->empty() && observer.controlPlaneSpans() != nullptr) {
      writeSpans(*observer.controlPlaneSpans(), label);
    }
  }

  /// Writes the control-plane span artifacts (JSONL + Perfetto trace) for
  /// one labelled recorder; usable with a standalone SpanRecorder too (the
  /// service-mode benches record spans without an Observer).
  void writeSpans(const obs::SpanRecorder& spans,
                  const std::string& label) const {
    if (!spansOut_ || spansOut_->empty()) return;
    const auto dotted = [&label, this](const char* suffix) {
      return label.empty() ? *spansOut_ + suffix
                           : *spansOut_ + "." + label + suffix;
    };
    {
      std::ofstream out(dotted(".jsonl"));
      obs::writeSpansJsonl(spans, out);
    }
    {
      std::ofstream out(dotted(".trace.json"));
      obs::writeSpansChromeTrace(spans, out);
    }
    std::cout << "wrote " << dotted(".{jsonl,trace.json}") << "\n";
  }

 private:
  util::Cli cli_;
  ScenarioDefaults defaults_;
  std::shared_ptr<int> switches_;
  std::shared_ptr<int> ports_;
  std::shared_ptr<int> samples_;
  std::shared_ptr<std::uint64_t> seed_;
  std::shared_ptr<int> packetFlits_;
  std::shared_ptr<int> warmup_;
  std::shared_ptr<int> measure_;
  std::shared_ptr<int> threads_;
  std::shared_ptr<std::string> metricsOut_;
  std::shared_ptr<std::string> timeseriesOut_;
  std::shared_ptr<int> timeseriesWindow_;
  std::shared_ptr<int> waitforPeriod_;
  std::shared_ptr<std::string> spansOut_;
};

/// Prints the paper's published numbers next to ours for one table, so the
/// shape comparison is immediate.  `paper` is row-major over
/// (policy M1..M3) x (lturn 4p, lturn 8p, downup 4p, downup 8p).
inline void printPaperReference(std::ostream& out, std::string_view caption,
                                const double (&paper)[3][4],
                                std::string_view suffix = "") {
  out << "\npaper reference (" << caption << "):\n";
  static constexpr const char* kRows[3] = {"M1", "M2", "M3"};
  static constexpr const char* kCols[4] = {"lturn 4p", "lturn 8p",
                                           "downup 4p", "downup 8p"};
  out << "      ";
  for (const char* col : kCols) out << col << "\t";
  out << "\n";
  for (int r = 0; r < 3; ++r) {
    out << kRows[r] << "    ";
    for (int c = 0; c < 4; ++c) out << paper[r][c] << suffix << "\t";
    out << "\n";
  }
}

}  // namespace downup::bench
