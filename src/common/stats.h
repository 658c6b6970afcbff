// Small statistics helpers used by the harness (speed averaging) and the
// auto-tuner (noise estimation, search-cost summaries).
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <span>

namespace bsched {

// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Percentile of a sample set with linear interpolation; p in [0, 100].
// Returns 0 for an empty span. Selects in place over the caller's storage
// (partial reorder via std::nth_element, O(n) instead of a full sort), so it
// neither copies nor allocates, and leaves the values reordered.
double PercentileInPlace(std::span<double> values, double p);

}  // namespace bsched

#endif  // SRC_COMMON_STATS_H_
