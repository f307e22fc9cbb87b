#include "fabric/metrics.hpp"

#include <cstdio>
#include <ostream>

namespace downup::fabric {

void LatencyHistogram::bucketRange(std::size_t i, double& lo,
                                   double& hi) noexcept {
  const std::size_t msb = i >> kSubBits;
  const std::size_t sub = i & ((1u << kSubBits) - 1);
  if (msb < kSubBits) {
    // Degenerate small buckets: values below 2^kSubBits land in bucket
    // (msb, 0) and cover exactly [2^msb, 2^(msb+1)).
    lo = static_cast<double>(std::uint64_t{1} << msb);
    hi = static_cast<double>(std::uint64_t{1} << (msb + 1));
    if (i == 0) lo = 0.0;  // bucket 0 also holds the value 0
    return;
  }
  const double base = static_cast<double>(std::uint64_t{1} << msb);
  const double step = base / static_cast<double>(1u << kSubBits);
  lo = base + step * static_cast<double>(sub);
  hi = lo + step;
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot snap;
  std::array<std::uint64_t, kBuckets> bins;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    bins[i] = bins_[i].load(std::memory_order_relaxed);
    total += bins[i];
  }
  snap.count = total;
  snap.maxNs = max_.load(std::memory_order_relaxed);
  if (total == 0) return snap;
  snap.meanNs = static_cast<double>(sum_.load(std::memory_order_relaxed)) /
                static_cast<double>(total);

  const double ranks[3] = {0.50 * static_cast<double>(total),
                           0.90 * static_cast<double>(total),
                           0.99 * static_cast<double>(total)};
  double* outs[3] = {&snap.p50Ns, &snap.p90Ns, &snap.p99Ns};
  std::size_t next = 0;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kBuckets && next < 3; ++i) {
    if (bins[i] == 0) continue;
    const double before = cumulative;
    cumulative += static_cast<double>(bins[i]);
    while (next < 3 && ranks[next] <= cumulative) {
      double lo = 0.0;
      double hi = 0.0;
      bucketRange(i, lo, hi);
      const double frac =
          (ranks[next] - before) / static_cast<double>(bins[i]);
      *outs[next] = lo + (hi - lo) * frac;
      ++next;
    }
  }
  // Quantiles cannot exceed the observed max.
  for (double* q : outs) {
    if (*q > static_cast<double>(snap.maxNs)) {
      *q = static_cast<double>(snap.maxNs);
    }
  }
  return snap;
}

namespace {

void writeHistogram(std::ostream& out, const char* name,
                    const LatencyHistogram& hist) {
  const LatencyHistogram::Snapshot snap = hist.snapshot();
  char buffer[160];
  std::snprintf(buffer, sizeof buffer,
                "\"%s\":{\"count\":%llu,\"meanNs\":%.1f,\"p50Ns\":%.1f,"
                "\"p90Ns\":%.1f,\"p99Ns\":%.1f,\"maxNs\":%llu}",
                name, static_cast<unsigned long long>(snap.count),
                snap.meanNs, snap.p50Ns, snap.p90Ns, snap.p99Ns,
                static_cast<unsigned long long>(snap.maxNs));
  out << buffer;
}

std::uint64_t load(const std::atomic<std::uint64_t>& value) {
  return value.load(std::memory_order_relaxed);
}

}  // namespace

void FabricMetrics::writeJson(std::ostream& out) const {
  out << "{";
  writeHistogram(out, "acquire", acquireNs);
  out << ",";
  writeHistogram(out, "rebuild", rebuildNs);
  out << ",";
  writeHistogram(out, "snapshotLifetime", snapshotLifetimeNs);
  out << ",\"publishes\":" << load(publishes)
      << ",\"reclaims\":" << load(reclaims)
      << ",\"retireDepthMax\":" << load(retireDepthMax)
      << ",\"readersRegistered\":" << load(readersRegistered)
      << ",\"readerPinnedMax\":" << load(readerPinnedMax)
      << ",\"rebuildsRun\":" << load(rebuildsRun)
      << ",\"rebuildsIncremental\":" << load(rebuildsIncremental)
      << ",\"dirtyDestinationsTotal\":" << load(dirtyDestinationsTotal)
      << ",\"dirtyDestinationsMax\":" << load(dirtyDestinationsMax) << "}";
}

}  // namespace downup::fabric
