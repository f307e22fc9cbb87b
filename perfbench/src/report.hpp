// Shared plumbing of the benchmark program: run options, timing summaries,
// the correctness ledger, span analysis and the result printer.
//
// A run prints a human-readable header and one line per timing (median,
// quartiles, tail percentile and sample count), then, as the LAST line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics; both lists are fixed (kEndToEnd / kPerLayer) so every workload
// reports every name — a layer a workload does not exercise reads 0.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/span_recorder.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// User + system CPU seconds of the whole process so far.
double processCpuSeconds();
/// CPU seconds of the calling thread so far.
double threadCpuSeconds();
/// Process resident-set high-water mark in MiB.
double peakRssMb();

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;      // seconds-scale sizes for the smoke tests
  std::string plant;      // planted failure (tests): "" = none
  std::string expectDigest;  // paper_sweep reference digest (hex), optional
  std::string outDir = ".";
};

/// Median, quartiles and the highest percentile that still has at least
/// ten samples beyond it (0 when fewer than 20 samples).
struct Dist {
  std::size_t n = 0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double tail = 0.0;
  double tailPct = 0.0;
};
Dist summarize(std::vector<double> samples);
/// Linear-interpolated percentile p in [0, 100] of unsorted samples.
double percentile(std::vector<double> samples, double p);

enum class Kind { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

class Report {
 public:
  void header(const std::string& key, const std::string& value);
  /// Records a timing distribution for the human report.
  Dist timing(const std::string& name, const char* unit,
              const std::vector<double>& samples);
  /// Sets a reported metric; `name` must be in kEndToEnd or kPerLayer.
  void metric(const std::string& name, double value);
  /// One checked operation; a false `ok` is a failure and is printed.
  void check(bool ok, std::string_view what);
  /// Adds `count` checked operations at once (all passed).
  void checkedOk(std::uint64_t count) { attempted_ += count; }
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const noexcept { return failed_ == 0 && attempted_ > 0; }
  std::uint64_t failed() const noexcept { return failed_; }

  /// Prints the report; the last line is the result JSON with the metrics
  /// of `kind`.
  void print(Kind kind) const;

 private:
  std::vector<std::pair<std::string, std::string>> header_;
  std::vector<std::string> lines_;
  std::vector<std::string> notes_;
  std::map<std::string, double> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failuresPrinted_ = 0;
};

/// Per-name view of a recorder's spans: every closed span's duration and
/// self time (duration minus its direct children), in milliseconds.
struct SpanStats {
  std::vector<double> durationsMs;
  double totalMs = 0.0;
  double selfMs = 0.0;
  std::size_t count = 0;
  double allocBytes = 0.0;  // charged to these spans (alloc tracking on)
};

struct SpanAnalysis {
  std::map<std::string, SpanStats> byName;
  /// Self times of every closed span, summed: the wall time the spans
  /// account for.
  double selfMsTotal = 0.0;
  /// Spans whose children cover more than their own duration (mis-nested
  /// or overlapping probes); a correct trace has none.
  std::size_t negativeSelf = 0;

  const SpanStats& operator[](const std::string& name) const;
  /// Median duration of `name` in ms (0 when absent).
  double medianMs(const std::string& name) const;
  /// Summed duration of every span whose name starts with `prefix`, in ms.
  double totalMsWithPrefix(const std::string& prefix) const;
};
SpanAnalysis analyzeSpans(const downup::util::SpanRecorder& spans);

/// Probe calibration, measured once at startup: the wall cost of one empty
/// ScopedSpan (begin + end) and the duration such a span records — the
/// bias every recorded duration carries.  Medians over several batches.
struct SpanCalibration {
  double costNs = 0.0;
  double biasNs = 0.0;
};
const SpanCalibration& spanCalibration();

/// Writes the recorder as obs_spans/2 JSONL under options.outDir, named
/// after the workload, seed and `part`; returns the path written (empty on
/// failure).
std::string writeSpans(const downup::util::SpanRecorder& spans,
                       const Options& options, const std::string& part = "");

/// Common header fields: source revision, build type, nproc, CPU model,
/// perf-counter availability, thread counts, seed and run count.
void writeRunHeader(Report& report, const Options& options);

/// Reconciles a traced run's spans with wall time that no span defines.
/// `windowMs` is the summed wall time of the windows the spans were
/// recorded in (set-ups, traced rounds), read from the clock around each
/// window.  The self times of all spans — each layer's, plus the explicit
/// "other" spans around the benchmark's own steps — must add up to it within
/// kReconcileTolerancePct: work done outside every span shows as a gap, and
/// a span whose children outlast it fails the check.  Reports the error
/// and the "other" time per traced round.
inline constexpr double kReconcileTolerancePct = 2.0;
void reconcile(Report& report, const SpanAnalysis& analysis, double windowMs,
               std::size_t tracedRounds);

/// Fills the trace-overhead metric: mean traced minus mean untraced value
/// of the same round quantity, in percent of the untraced one.
void reportTraceOverhead(Report& report, const std::vector<double>& untraced,
                         const std::vector<double>& traced);

}  // namespace perfbench
