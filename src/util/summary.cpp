#include "util/summary.hpp"

namespace downup::util {

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double populationStddev(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

QuantileSketch::QuantileSketch(std::size_t exactCap, std::size_t bins)
    : exactCap_(std::max<std::size_t>(1, exactCap)),
      binCount_(std::max<std::size_t>(2, bins)) {}

void QuantileSketch::add(double x) {
  sum_ += x;
  ++count_;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  if (collapsed_.empty()) {
    values_.push_back(x);
    if (values_.size() >= exactCap_) collapse();
    return;
  }
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(collapsed_.size()) - 1);
  ++collapsed_[static_cast<std::size_t>(idx)];
}

void QuantileSketch::collapse() {
  // Span the observed range with headroom above: latency-style streams only
  // grow their upper tail after warm-up, so values below lo_ are rare and
  // clamp into the first bin.
  lo_ = min_;
  const double range = std::max(max_ - min_, 1.0);
  width_ = 1.5 * range / static_cast<double>(binCount_);
  collapsed_.assign(binCount_, 0);
  for (double x : values_) {
    auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(collapsed_.size()) - 1);
    ++collapsed_[static_cast<std::size_t>(idx)];
  }
  values_.clear();
  values_.shrink_to_fit();
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (collapsed_.empty()) return util::quantile(values_, q);
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(count_ - 1);
  // Find the bin containing rank floor(pos) and interpolate inside it,
  // assuming values spread evenly across the bin.
  std::uint64_t seen = 0;
  const auto rank = static_cast<std::uint64_t>(pos);
  for (std::size_t b = 0; b < collapsed_.size(); ++b) {
    const std::uint64_t inBin = collapsed_[b];
    if (inBin == 0) continue;
    if (seen + inBin > rank) {
      const double within =
          (static_cast<double>(rank - seen) + (pos - static_cast<double>(rank))) /
          static_cast<double>(inBin);
      const double value = lo_ + width_ * (static_cast<double>(b) + within);
      return std::clamp(value, min_, max_);
    }
    seen += inBin;
  }
  return max_;
}

void QuantileSketch::regrid() {
  // Re-bins the existing histogram onto a fresh grid spanning the current
  // min_/max_ (same headroom rule as collapse); each old bin's mass moves
  // to its midpoint's new bin, so the error stays bounded by the old width.
  const std::vector<std::uint64_t> old = collapsed_;
  const double oldLo = lo_;
  const double oldWidth = width_;
  lo_ = min_;
  const double range = std::max(max_ - min_, 1.0);
  width_ = 1.5 * range / static_cast<double>(binCount_);
  collapsed_.assign(binCount_, 0);
  for (std::size_t b = 0; b < old.size(); ++b) {
    if (old[b] == 0) continue;
    const double mid = oldLo + oldWidth * (static_cast<double>(b) + 0.5);
    auto idx = static_cast<std::ptrdiff_t>((mid - lo_) / width_);
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(collapsed_.size()) - 1);
    collapsed_[static_cast<std::size_t>(idx)] += old[b];
  }
}

QuantileSketch::Snapshot QuantileSketch::snapshot() const {
  Snapshot snap;
  if (count_ == 0) return snap;
  snap.count = count_;
  snap.mean = mean();
  snap.min = min_;
  snap.max = max_;
  snap.p50 = quantile(0.5);
  snap.p95 = quantile(0.95);
  snap.p99 = quantile(0.99);
  return snap;
}

void QuantileSketch::clear() noexcept {
  values_.clear();  // keeps capacity: steady-state reuse allocates nothing
  collapsed_.clear();
  lo_ = 0.0;
  width_ = 1.0;
  sum_ = 0.0;
  count_ = 0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

void QuantileSketch::mergeFrom(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (exact() && other.exact() &&
      values_.size() + other.values_.size() < exactCap_) {
    // Exact x exact: replay other's values; identical to having added them
    // here in the first place (mean uses the same left-to-right sum order).
    for (double x : other.values_) add(x);
    return;
  }
  sum_ += other.sum_;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  if (collapsed_.empty()) {
    collapse();  // grids over the already-updated union min_/max_
  } else if (min_ < lo_ ||
             max_ >= lo_ + width_ * static_cast<double>(binCount_)) {
    regrid();  // disjoint windows: widen the grid to span the union
  }
  const auto addWeighted = [this](double x, std::uint64_t weight) {
    auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(collapsed_.size()) - 1);
    collapsed_[static_cast<std::size_t>(idx)] += weight;
  };
  if (other.collapsed_.empty()) {
    for (double x : other.values_) addWeighted(x, 1);
  } else {
    for (std::size_t b = 0; b < other.collapsed_.size(); ++b) {
      if (other.collapsed_[b] == 0) continue;
      const double mid =
          other.lo_ + other.width_ * (static_cast<double>(b) + 0.5);
      addWeighted(std::clamp(mid, other.min_, other.max_),
                  other.collapsed_[b]);
    }
  }
}

}  // namespace downup::util
