#include "src/obs/timeseries.h"

#include <algorithm>
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
  auto scope = std::make_unique<Scope>();
  scope->name = name;
  scope->sim = sim;
  scope->active = std::move(active);
  scopes_.push_back(std::move(scope));
  return static_cast<int>(scopes_.size()) - 1;
}

void TimeSeriesRecorder::SampleCounter(int scope, const std::string& metric) {
  BSCHED_CHECK(!started_);
  Source src;
  src.kind = Source::Kind::kCounter;
  src.name = metric;
  src.counter = registry_->counter(metric);
  scopes_.at(scope)->sources.push_back(std::move(src));
}

void TimeSeriesRecorder::SampleGauge(int scope, const std::string& metric) {
  BSCHED_CHECK(!started_);
  Source src;
  src.kind = Source::Kind::kGauge;
  src.name = metric;
  src.gauge = registry_->gauge(metric);
  scopes_.at(scope)->sources.push_back(std::move(src));
}

void TimeSeriesRecorder::SampleSketch(int scope, const std::string& metric) {
  BSCHED_CHECK(!started_);
  Source src;
  src.kind = Source::Kind::kSketch;
  src.name = metric;
  src.hist = registry_->histogram(metric);
  src.last_buckets.assign(Histogram::kNumBuckets, 0);
  scopes_.at(scope)->sources.push_back(std::move(src));
}

void TimeSeriesRecorder::SampleProbe(int scope, const std::string& metric,
                                     std::function<int64_t()> probe) {
  BSCHED_CHECK(!started_);
  BSCHED_CHECK(probe != nullptr);
  Source src;
  src.kind = Source::Kind::kProbe;
  src.name = metric;
  src.probe = std::move(probe);
  scopes_.at(scope)->sources.push_back(std::move(src));
}

void TimeSeriesRecorder::SampleScope(Scope* scope) {
  Tick tick;
  tick.time_ns = scope->sim->Now().nanos();
  std::string& rows = tick.rows;
  for (Source& src : scope->sources) {
    AppendInt(&rows, tick.time_ns);
    rows += ',';
    rows += scope->name;
    rows += ',';
    rows += src.name;
    rows += ',';
    switch (src.kind) {
      case Source::Kind::kCounter:
        rows += "counter,";
        AppendInt(&rows, static_cast<int64_t>(src.counter->value()));
        rows += ",,,,,";
        break;
      case Source::Kind::kGauge:
        rows += "gauge,";
        AppendInt(&rows, src.gauge->value());
        rows += ",,,,,";
        break;
      case Source::Kind::kProbe:
        rows += "probe,";
        AppendInt(&rows, src.probe());
        rows += ",,,,,";
        break;
      case Source::Kind::kSketch: {
        // Per-window delta of the histogram: the bucket counts that landed
        // since the previous tick form a mergeable sketch of this window's
        // observations. Sources are written only by this scope's simulator
        // thread, so relaxed loads here are exact, not racy estimates.
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
        rows += "sketch,,";
        AppendInt(&rows, static_cast<int64_t>(window.count));
        rows += ',';
        AppendInt(&rows, window.sum);
        rows += ',';
        AppendDouble(&rows, p[0]);
        rows += ',';
        AppendDouble(&rows, p[1]);
        rows += ',';
        AppendDouble(&rows, p[2]);
        break;
      }
    }
    rows += '\n';
  }
  scope->ticks.push_back(std::move(tick));
}

void TimeSeriesRecorder::Start() {
  BSCHED_CHECK(!started_ && "TimeSeriesRecorder::Start() must be called exactly once");
  started_ = true;
  for (auto& scope : scopes_) {
    Scope* s = scope.get();
    s->sim->SchedulePeriodic(interval_, [this, s] {
      SampleScope(s);
      return s->active();
    });
  }
}

void TimeSeriesRecorder::WriteCsv(std::ostream& os) const {
  os << "time_ns,scope,metric,kind,value,count,sum,p50,p95,p99\n";
  // Merge per-scope series in fixed (time, scope) order, so the merged stream
  // does not depend on the order in which scopes' ticks fired.
  struct Ref {
    int64_t time_ns;
    size_t scope;
    size_t tick;
  };
  std::vector<Ref> refs;
  for (size_t si = 0; si < scopes_.size(); ++si) {
    const Scope& scope = *scopes_[si];
    for (size_t ti = 0; ti < scope.ticks.size(); ++ti) {
      refs.push_back(Ref{scope.ticks[ti].time_ns, si, ti});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.time_ns != b.time_ns) {
      return a.time_ns < b.time_ns;
    }
    if (a.scope != b.scope) {
      return a.scope < b.scope;
    }
    return a.tick < b.tick;
  });
  for (const Ref& ref : refs) {
    os << scopes_[ref.scope]->ticks[ref.tick].rows;
  }
}

std::string TimeSeriesRecorder::ToCsv() const {
  std::ostringstream os;
  WriteCsv(os);
  return os.str();
}

uint64_t TimeSeriesRecorder::total_ticks() const {
  uint64_t total = 0;
  for (const auto& scope : scopes_) {
    total += scope->ticks.size();
  }
  return total;
}

}  // namespace bsched
