#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/span.hpp"
#include "util/perf_counters.hpp"
#include "util/summary.hpp"

namespace perfbench {

// The metric lists mirror BENCHMARK.json; run.py checks that every run's
// result carries exactly the names listed there.  Operation latencies are
// gated on p90: the light and heavy classes mix cells or paths of different
// cost, so their medians fall between clusters and move with the mix.  The
// timing table still prints every median.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"light_p90_ms", "ms"},   {"heavy_p90_ms", "ms"},
    {"work_per_s", "1/s"},    {"cpu_us_per_work", "us"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"trace.span_cost_ns", "ns"},
    {"trace.overhead_pct", "%"},
    {"trace.reconcile_err_pct", "%"},
    {"trace.other_ms", "ms"},
    {"topology.generate_ms", "ms"},
    {"tree.build_ms", "ms"},
    {"routing.classify_ms", "ms"},
    {"core.repair_ms", "ms"},
    {"core.release_ms", "ms"},
    {"routing.table_build_ms", "ms"},
    {"routing.table_alloc_mb", "MB"},
    {"routing.verify_ms", "ms"},
    {"fabric.construct_ms", "ms"},
    {"fault.rebuild_incr_ms", "ms"},
    {"fault.rebuild_full_ms", "ms"},
    {"fault.dirty_destinations", "count"},
    {"fault.incremental_ratio", "ratio"},
    {"fabric.publish_ms", "ms"},
    {"fabric.publish_self_ms", "ms"},
    {"fabric.acquire_ns", "ns"},
    {"fabric.retired_max", "count"},
    {"routing.lookup_ns", "ns"},
    {"routing.hops_walked", "count"},
    {"core.build_routing_ms", "ms"},
    {"sim.run_s", "s"},
    {"sim.cycles", "count"},
    {"sim.ns_per_cycle_low", "ns"},
    {"sim.ns_per_cycle_sat", "ns"},
    {"stats.self_s", "s"},
    {"verify.oracle_ms", "ms"},
};

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return downup::util::quantile(samples, p / 100.0);
}

Dist summarize(std::vector<double> samples) {
  Dist d;
  d.n = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p25 = downup::util::quantile(samples, 0.25);
  d.p50 = downup::util::quantile(samples, 0.50);
  d.p75 = downup::util::quantile(samples, 0.75);
  for (const double pct : {99.9, 99.0, 90.0}) {
    if (static_cast<double>(d.n) * (1.0 - pct / 100.0) >= 10.0) {
      d.tailPct = pct;
      d.tail = downup::util::quantile(samples, pct / 100.0);
      break;
    }
  }
  return d;
}

namespace {

const MetricSpec* findSpec(const std::string& name) {
  for (const auto* list : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& spec : *list) {
      if (name == spec.name) return &spec;
    }
  }
  return nullptr;
}

std::string formatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);  // round-trips the double
  return buf;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

void Report::header(const std::string& key, const std::string& value) {
  header_.emplace_back(key, value);
}

Dist Report::timing(const std::string& name, const char* unit,
                    const std::vector<double>& samples) {
  const Dist d = summarize(samples);
  char buf[256];
  if (d.tailPct > 0.0) {
    std::snprintf(buf, sizeof buf,
                  "  %-34s p50 %-12.6g p25 %-12.6g p75 %-12.6g p%-4g %-12.6g "
                  "n=%zu %s",
                  name.c_str(), d.p50, d.p25, d.p75, d.tailPct, d.tail, d.n,
                  unit);
  } else {
    std::snprintf(buf, sizeof buf,
                  "  %-34s p50 %-12.6g p25 %-12.6g p75 %-12.6g (no tail: "
                  "n=%zu) %s",
                  name.c_str(), d.p50, d.p25, d.p75, d.n, unit);
  }
  lines_.emplace_back(buf);
  return d;
}

void Report::metric(const std::string& name, double value) {
  if (findSpec(name) == nullptr) {
    check(false, "unknown metric name " + name);
    return;
  }
  if (!std::isfinite(value)) {
    check(false, "non-finite value for metric " + name);
    value = 0.0;
  }
  metrics_[name] = value;
}

void Report::check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failuresPrinted_++ < 20) {
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
}

void Report::print(Kind kind) const {
  std::ostringstream out;
  out << "== perfbench ==\n";
  for (const auto& [key, value] : header_) {
    out << "  " << key << ": " << value << "\n";
  }
  out << "timings:\n";
  for (const std::string& line : lines_) out << line << "\n";
  for (const std::string& line : notes_) out << "  note: " << line << "\n";
  out << (kind == Kind::kEndToEnd ? "end-to-end metrics:\n"
                                  : "per-layer metrics:\n");
  const auto& specs = kind == Kind::kEndToEnd ? kEndToEnd : kPerLayer;
  std::string json = std::string("{\"correct\": ") +
                     (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = metrics_.find(spec.name);
    const double value = it == metrics_.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-30s %-16.9g %s\n", spec.name, value,
                  spec.unit);
    out << buf;
    json.append(first ? "\"" : ", \"")
        .append(jsonEscape(spec.name))
        .append("\": {\"value\": ")
        .append(formatDouble(value))
        .append(", \"unit\": \"")
        .append(spec.unit)
        .append("\"}");
    first = false;
  }
  json += "}}";
  std::cout << out.str() << json << std::endl;
}

const SpanStats& SpanAnalysis::operator[](const std::string& name) const {
  static const SpanStats kEmpty;
  const auto it = byName.find(name);
  return it == byName.end() ? kEmpty : it->second;
}

double SpanAnalysis::medianMs(const std::string& name) const {
  return percentile((*this)[name].durationsMs, 50.0);
}

double SpanAnalysis::totalMsWithPrefix(const std::string& prefix) const {
  double total = 0.0;
  for (const auto& [name, stats] : byName) {
    if (name.rfind(prefix, 0) == 0) total += stats.totalMs;
  }
  return total;
}

SpanAnalysis analyzeSpans(const downup::util::SpanRecorder& spans) {
  const auto all = spans.snapshot();
  std::vector<double> childMs(all.size(), 0.0);
  for (const auto& span : all) {
    if (span.parent != downup::util::SpanRecorder::kNoParent &&
        span.endNs != 0) {
      childMs[span.parent] += static_cast<double>(span.durationNs()) * 1e-6;
    }
  }
  SpanAnalysis analysis;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].endNs == 0) continue;  // still open: not part of the result
    const double ms = static_cast<double>(all[i].durationNs()) * 1e-6;
    SpanStats& stats = analysis.byName[all[i].name];
    stats.durationsMs.push_back(ms);
    stats.totalMs += ms;
    const double self = ms - childMs[i];
    if (self < -1e-6) ++analysis.negativeSelf;
    stats.selfMs += self;
    analysis.selfMsTotal += self;
    stats.allocBytes += static_cast<double>(all[i].allocBytes);
    ++stats.count;
  }
  return analysis;
}

const SpanCalibration& spanCalibration() {
  static const SpanCalibration calibration = [] {
    constexpr int kBatch = 2000;
    std::vector<double> costNs, biasNs;
    for (int rep = 0; rep < 7; ++rep) {
      downup::util::SpanRecorder recorder;
      const auto t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        downup::util::ScopedSpan span(&recorder, "trace.empty");
      }
      costNs.push_back(msBetween(t0, Clock::now()) * 1e6 / kBatch);
      std::vector<double> durations;
      for (const auto& span : recorder.snapshot()) {
        durations.push_back(static_cast<double>(span.durationNs()));
      }
      biasNs.push_back(percentile(std::move(durations), 50.0));
    }
    return SpanCalibration{percentile(costNs, 50.0), percentile(biasNs, 50.0)};
  }();
  return calibration;
}

std::string writeSpans(const downup::util::SpanRecorder& spans,
                       const Options& options, const std::string& part) {
  std::error_code ec;
  std::filesystem::create_directories(options.outDir, ec);
  const std::string path = options.outDir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) +
                           (part.empty() ? "" : "-" + part) +
                           ".obs_spans.jsonl";
  std::ofstream out(path);
  if (!out) return {};
  downup::obs::writeSpansJsonl(spans, out);
  return out ? path : std::string{};
}

void writeRunHeader(Report& report, const Options& options) {
  const char* rev = std::getenv("PERFBENCH_REV");
  report.header("gitRev", rev != nullptr && *rev != '\0' ? rev : "unknown");
  report.header("buildType", PERFBENCH_BUILD_TYPE);
  report.header("nproc", std::to_string(std::thread::hardware_concurrency()));
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  report.header("cpuModel", cpu);
  downup::util::PerfCounterGroup counters;
  std::string perf;
  if (!counters.available()) {
    perf = "unavailable (" + counters.unavailableReason() + ")";
  } else if (counters.eventMask() !=
             (1u << downup::util::kPerfEventCount) - 1) {
    perf = "partial: task-clock only (" + counters.degradedReason() + ")";
  } else {
    perf = "available";
  }
  report.header("perfCounters", perf);
  report.header("workload", options.workload);
  report.header("seed", std::to_string(options.seed));
  report.header("seconds", formatDouble(options.seconds));
  report.header("trace", options.trace ? "1" : "0");
  report.header("size", options.tiny ? "tiny" : "full");
}

void reconcile(Report& report, const SpanAnalysis& analysis, double windowMs,
               std::size_t tracedRounds) {
  report.check(windowMs > 0.0 && tracedRounds > 0,
               "the traced run recorded spans in measured windows");
  const double errPct =
      windowMs > 0.0
          ? std::fabs(windowMs - analysis.selfMsTotal) / windowMs * 100.0
          : 100.0;
  report.check(analysis.negativeSelf == 0,
               "no span's children outlast it (trace nests cleanly)");
  report.check(errPct <= kReconcileTolerancePct,
               "layer self times + other reconcile with measured wall time "
               "within " + formatDouble(kReconcileTolerancePct) + "% (spans " +
                   formatDouble(analysis.selfMsTotal) + " ms, wall " +
                   formatDouble(windowMs) + " ms)");
  report.metric("trace.reconcile_err_pct", errPct);
  report.metric("trace.other_ms",
                tracedRounds > 0 ? analysis["other"].totalMs /
                                       static_cast<double>(tracedRounds)
                                 : 0.0);
}

void reportTraceOverhead(Report& report, const std::vector<double>& untraced,
                         const std::vector<double>& traced) {
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double base = mean(untraced);
  const double with = mean(traced);
  report.metric("trace.overhead_pct",
                base > 0.0 ? (with - base) / base * 100.0 : 0.0);
}

}  // namespace perfbench
