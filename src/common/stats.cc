#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

namespace bsched {

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double PercentileInPlace(std::span<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  if (values.size() == 1) {
    return values[0];
  }
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(lo), values.end());
  const double lo_value = values[lo];
  if (hi == lo || frac == 0.0) {
    return lo_value;
  }
  // The hi-neighbor is the minimum of the partition right of lo.
  const double hi_value =
      *std::min_element(values.begin() + static_cast<ptrdiff_t>(lo) + 1, values.end());
  return lo_value * (1.0 - frac) + hi_value * frac;
}

}  // namespace bsched
