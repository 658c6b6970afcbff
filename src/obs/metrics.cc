#include "src/obs/metrics.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "src/common/stats.h"
#include "src/common/trace.h"

namespace bsched {

int64_t Histogram::BucketUpperBound(int index) {
  if (index <= 0) {
    return 0;
  }
  if (index >= kNumBuckets - 1) {
    return std::numeric_limits<int64_t>::max();
  }
  return (int64_t{1} << index) - 1;
}

int64_t Histogram::BucketLowerBound(int index) {
  if (index <= 0) {
    return 0;
  }
  return int64_t{1} << (index - 1);
}

uint64_t Histogram::count() const {
  return std::accumulate(std::begin(buckets_), std::end(buckets_), uint64_t{0});
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = buckets_[i];
    if (c > 0) {
      snap.buckets.emplace_back(i, c);
      snap.count += c;
    }
  }
  snap.sum = sum_;
  return snap;
}

std::vector<double> HistogramSnapshot::Percentiles(const std::vector<double>& ps) const {
  std::vector<double> out(ps.size(), 0.0);
  if (count == 0) {
    return out;
  }
  // Expand each bucket into representative points spread evenly across its
  // value range, capped at ~4k points total (proportional allocation, at
  // least one point per non-empty bucket) so a billion-sample histogram
  // still selects in microseconds.
  constexpr uint64_t kMaxPoints = 4096;
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(std::min(count, kMaxPoints)) + buckets.size());
  for (const auto& [index, c] : buckets) {
    const uint64_t n = count > kMaxPoints ? std::max<uint64_t>(1, c * kMaxPoints / count) : c;
    const double lo = static_cast<double>(Histogram::BucketLowerBound(index));
    const double hi = static_cast<double>(Histogram::BucketUpperBound(index));
    for (uint64_t j = 0; j < n; ++j) {
      const double frac = (2.0 * static_cast<double>(j) + 1.0) / (2.0 * static_cast<double>(n));
      samples.push_back(lo + (hi - lo) * frac);
    }
  }
  for (size_t i = 0; i < ps.size(); ++i) {
    out[i] = PercentileInPlace(std::span<double>(samples), ps[i]);
  }
  return out;
}

namespace {

template <typename T>
T* GetOrCreate(std::map<std::string, std::unique_ptr<T>>& metrics, const std::string& name) {
  std::unique_ptr<T>& slot = metrics[name];
  if (slot == nullptr) {
    slot = std::make_unique<T>();
  }
  return slot.get();
}

}  // namespace

Counter* MetricsRegistry::counter(const std::string& name) { return GetOrCreate(counters_, name); }
Gauge* MetricsRegistry::gauge(const std::string& name) { return GetOrCreate(gauges_, name); }
Histogram* MetricsRegistry::histogram(const std::string& name) {
  return GetOrCreate(histograms_, name);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace(name, h->Snapshot());
  }
  return snap;
}

void MetricsSnapshot::WriteJson(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": " << v;
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": " << v;
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": {\"count\": "
       << h.count << ", \"sum\": " << h.sum << ", \"buckets\": [";
    bool first_bucket = true;
    for (const auto& [index, c] : h.buckets) {
      os << (first_bucket ? "" : ", ") << "[" << index << ", " << c << "]";
      first_bucket = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "}\n" : "\n  }\n");
  os << "}\n";
}

}  // namespace bsched
