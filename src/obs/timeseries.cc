#include "src/obs/timeseries.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

// Fixed-format double for CSV cells: deterministic across platforms for the
// integer-derived percentile estimates we emit, and trailing-zero-trimmed so
// the common integral case reads cleanly.
void AppendDouble(std::string* out, double v) {
  char buf[64];
  int len = std::snprintf(buf, sizeof(buf), "%.4f", v);
  while (len > 0 && buf[len - 1] == '0') {
    --len;
  }
  if (len > 0 && buf[len - 1] == '.') {
    --len;
  }
  out->append(buf, static_cast<size_t>(len));
}

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  const int len = std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out->append(buf, static_cast<size_t>(len));
}

// A counter/gauge/probe row's tail: kind, value, empty sketch columns.
void AppendValue(std::string* out, const char* kind, int64_t v) {
  *out += kind;
  AppendInt(out, v);
  *out += ",,,,,";
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(MetricsRegistry* registry, SimTime interval)
    : registry_(registry), interval_(interval) {
  BSCHED_CHECK(registry_ != nullptr);
  BSCHED_CHECK(interval_.nanos() > 0);
}

int TimeSeriesRecorder::AddScope(const std::string& name, Simulator* sim,
                                 std::function<bool()> active) {
  BSCHED_CHECK(!started_);
  BSCHED_CHECK(sim != nullptr);
  BSCHED_CHECK(active != nullptr);
  BSCHED_CHECK((scopes_.empty() || sim == sim_) &&
               "every scope of a TimeSeriesRecorder samples one simulator");
  sim_ = sim;
  scopes_.push_back(Scope{name, std::move(active), {}});
  return static_cast<int>(scopes_.size()) - 1;
}

TimeSeriesRecorder::Source& TimeSeriesRecorder::AddSource(int scope, Source::Kind kind,
                                                          const std::string& metric) {
  BSCHED_CHECK(!started_);
  Source& src = scopes_.at(scope).sources.emplace_back();
  src.kind = kind;
  src.name = metric;
  return src;
}

void TimeSeriesRecorder::SampleCounter(int scope, const std::string& metric) {
  AddSource(scope, Source::Kind::kCounter, metric).counter = registry_->counter(metric);
}

void TimeSeriesRecorder::SampleGauge(int scope, const std::string& metric) {
  AddSource(scope, Source::Kind::kGauge, metric).gauge = registry_->gauge(metric);
}

void TimeSeriesRecorder::SampleSketch(int scope, const std::string& metric) {
  Source& src = AddSource(scope, Source::Kind::kSketch, metric);
  src.hist = registry_->histogram(metric);
  src.last_buckets.assign(Histogram::kNumBuckets, 0);
}

void TimeSeriesRecorder::SampleProbe(int scope, const std::string& metric,
                                     std::function<int64_t()> probe) {
  BSCHED_CHECK(probe != nullptr);
  AddSource(scope, Source::Kind::kProbe, metric).probe = std::move(probe);
}

void TimeSeriesRecorder::SampleScope(Scope* scope) {
  ++total_ticks_;
  const int64_t time_ns = sim_->Now().nanos();
  for (Source& src : scope->sources) {
    AppendInt(&rows_, time_ns);
    rows_ += ',';
    rows_ += scope->name;
    rows_ += ',';
    rows_ += src.name;
    rows_ += ',';
    switch (src.kind) {
      case Source::Kind::kCounter:
        AppendValue(&rows_, "counter,", static_cast<int64_t>(src.counter->value()));
        break;
      case Source::Kind::kGauge:
        AppendValue(&rows_, "gauge,", src.gauge->value());
        break;
      case Source::Kind::kProbe:
        AppendValue(&rows_, "probe,", src.probe());
        break;
      case Source::Kind::kSketch: {
        // Per-window delta of the histogram: the bucket counts that landed
        // since the previous tick form a mergeable sketch of this window's
        // observations.
        HistogramSnapshot window;
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          const uint64_t cur = src.hist->bucket_count(i);
          const uint64_t delta = cur - src.last_buckets[i];
          src.last_buckets[i] = cur;
          if (delta > 0) {
            window.buckets.emplace_back(i, delta);
            window.count += delta;
          }
        }
        const int64_t cur_sum = src.hist->sum();
        window.sum = cur_sum - src.last_sum;
        src.last_sum = cur_sum;
        const std::vector<double> p = window.Percentiles({50.0, 95.0, 99.0});
        rows_ += "sketch,,";
        AppendInt(&rows_, static_cast<int64_t>(window.count));
        rows_ += ',';
        AppendInt(&rows_, window.sum);
        for (const double q : p) {
          rows_ += ',';
          AppendDouble(&rows_, q);
        }
        break;
      }
    }
    rows_ += '\n';
  }
}

void TimeSeriesRecorder::Start() {
  BSCHED_CHECK(!started_ && "TimeSeriesRecorder::Start() must be called exactly once");
  started_ = true;
  // Scopes are fixed once started, so their addresses are stable.
  for (Scope& scope : scopes_) {
    Scope* s = &scope;
    sim_->SchedulePeriodic(interval_, [this, s] {
      SampleScope(s);
      return s->active();
    });
  }
}

void TimeSeriesRecorder::WriteCsv(std::ostream& os) const {
  os << "time_ns,scope,metric,kind,value,count,sum,p50,p95,p99\n" << rows_;
}

std::string TimeSeriesRecorder::ToCsv() const {
  std::ostringstream os;
  WriteCsv(os);
  return os.str();
}

}  // namespace bsched
