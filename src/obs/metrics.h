// Metrics registry for the observability layer: counters, gauges and
// histograms with fixed log2 buckets. Designed for zero overhead when
// disabled (subsystems hold nullptr handles and skip every call site) and a
// plain-integer fast path when enabled. A registry belongs to one job on one
// thread: parallel sweeps on the src/exec/ thread pool give each job its
// own, so nothing here is synchronized. Subsystems cache the handles that
// registration (get-or-create by name) returns at setup time, keeping the
// hot path to a null check and an add.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace bsched {

// Monotonically increasing count (events, bytes, retries).
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Instantaneous level (bytes in flight, final credit, busy nanoseconds).
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Exported state of one histogram: total count/sum plus the non-empty
// buckets as (bucket index, count) pairs.
struct HistogramSnapshot {
  uint64_t count = 0;
  int64_t sum = 0;
  std::vector<std::pair<int, uint64_t>> buckets;

  // Percentile estimates (each p in [0, 100]) computed by expanding the log2
  // buckets into a bounded set of evenly-spread representative samples and
  // selecting with PercentileInPlace — the same selection the rest of the
  // harness uses, so CSV percentiles and bench percentiles agree on
  // convention. Returns one value per requested percentile; all zeros for an
  // empty histogram.
  std::vector<double> Percentiles(const std::vector<double>& ps) const;
};

// Fixed log2-bucket histogram over non-negative integer samples (bytes,
// nanoseconds, queue depths). Bucket 0 holds v <= 0; bucket k (k >= 1) holds
// v in [2^(k-1), 2^k - 1], i.e. the bit width of v. An observation is two
// adds, with no allocation.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Observe(int64_t v) {
    ++buckets_[BucketIndex(v)];
    sum_ += v;
  }

  static int BucketIndex(int64_t v) {
    if (v <= 0) {
      return 0;
    }
    const int width = std::bit_width(static_cast<uint64_t>(v));
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }

  // Largest value that lands in `index` (inclusive); bucket 0 tops out at 0.
  static int64_t BucketUpperBound(int index);
  // Smallest value of `index`; bucket 0 has no meaningful lower bound.
  static int64_t BucketLowerBound(int index);

  uint64_t count() const;
  int64_t sum() const { return sum_; }
  uint64_t bucket_count(int index) const { return buckets_[index]; }

  HistogramSnapshot Snapshot() const;

 private:
  uint64_t buckets_[kNumBuckets] = {};
  int64_t sum_ = 0;
};

// Point-in-time export of a whole registry. Maps are name-sorted, so two
// snapshots of identical metric state serialize byte-identically regardless
// of registration order.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  void WriteJson(std::ostream& os) const;
};

// Get-or-create registry of named metrics. Handles are stable for the
// registry's lifetime; the same name always returns the same handle.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace bsched

#endif  // SRC_OBS_METRICS_H_
