// Streaming summary statistics used throughout the experiment harness.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace downup::util {

/// Welford online mean/variance accumulator with min/max tracking.
class RunningStat {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  void merge(const RunningStat& other) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Population variance (divides by n); matches the paper's "traffic load"
  /// definition, which is the standard deviation over all nodes.
  double variance() const noexcept {
    return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
  }
  double stddev() const noexcept { return std::sqrt(variance()); }

  /// Sample variance (divides by n-1), for cross-sample error bars.
  double sampleVariance() const noexcept {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  double sampleStddev() const noexcept { return std::sqrt(sampleVariance()); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Mean of a span; 0 for empty input.
double mean(std::span<const double> xs) noexcept;

/// Population standard deviation of a span; 0 for empty input.
double populationStddev(std::span<const double> xs) noexcept;

/// q-quantile (0 <= q <= 1) by linear interpolation on a sorted copy.
double quantile(std::span<const double> xs, double q);

/// Bounded-memory streaming summary of a value stream: exact mean (running
/// sum in insertion order, so it reproduces mean() over the same values
/// bit-for-bit) plus quantiles.  Quantiles are *exact* — identical to
/// quantile() on the full sample — until `exactCap` values have been added;
/// beyond that the buffer collapses into a fixed-width histogram spanning
/// the observed range and quantiles are interpolated within bins (error
/// bounded by the bin width; the tracked min/max clamp the extremes).  This
/// keeps per-run memory O(exactCap + bins) regardless of how many packets a
/// measurement window delivers.
class QuantileSketch {
 public:
  explicit QuantileSketch(std::size_t exactCap = 1 << 16,
                          std::size_t bins = 4096);

  void add(double x);

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// q-quantile (0 <= q <= 1); 0 for an empty sketch.
  double quantile(double q) const;

  /// True while every added value is still held exactly.
  bool exact() const noexcept { return collapsed_.empty(); }
  /// The raw values (insertion order) while exact(); empty afterwards.
  std::span<const double> exactValues() const noexcept { return values_; }

  /// Point-in-time summary of the sketch, cheap enough to take once per
  /// measurement window (time-series snapshots).  All fields are 0 for an
  /// empty sketch.
  struct Snapshot {
    std::uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;

    bool operator==(const Snapshot&) const = default;
  };
  Snapshot snapshot() const;

  /// Empties the sketch for reuse (per-window accumulators) without
  /// releasing the exact-phase buffer's capacity — steady-state reuse
  /// performs no allocation while the window stays under exactCap values.
  void clear() noexcept;

  /// Folds `other` into this sketch.  The merge is exact (same result as
  /// replaying other's values) while both sides are in the exact phase and
  /// the union fits exactCap; otherwise both collapse and other's bins are
  /// re-binned by midpoint into this sketch's grid, keeping count/mean/
  /// min/max exact and quantile error bounded by the coarser bin width.
  void mergeFrom(const QuantileSketch& other);

 private:
  void collapse();
  void regrid();

  std::size_t exactCap_;
  std::size_t binCount_;
  std::vector<double> values_;      // exact phase (insertion order)
  std::vector<std::uint64_t> collapsed_;  // histogram phase (empty = exact)
  double lo_ = 0.0;
  double width_ = 1.0;
  double sum_ = 0.0;
  std::size_t count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace downup::util
