#include "src/obs/critical_path.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "src/obs/json_lite.h"

namespace bsched::obs {
namespace {

// Closed-open [start, end) microsecond intervals, kept sorted and disjoint.
using Intervals = std::vector<std::pair<double, double>>;

Intervals Normalize(Intervals iv) {
  std::sort(iv.begin(), iv.end());
  Intervals out;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) {
      continue;
    }
    if (!out.empty() && lo <= out.back().second) {
      out.back().second = std::max(out.back().second, hi);
    } else {
      out.emplace_back(lo, hi);
    }
  }
  return out;
}

// Intersection of normalized `iv` with [lo, hi).
Intervals Clip(const Intervals& iv, double lo, double hi) {
  Intervals out;
  for (const auto& [a, b] : iv) {
    const double s = std::max(a, lo);
    const double e = std::min(b, hi);
    if (e > s) {
      out.emplace_back(s, e);
    }
  }
  return out;
}

// Set difference a \ b of normalized interval lists.
Intervals Subtract(const Intervals& a, const Intervals& b) {
  Intervals out;
  size_t j = 0;
  for (auto [lo, hi] : a) {
    while (j < b.size() && b[j].second <= lo) {
      ++j;
    }
    size_t k = j;
    double cur = lo;
    while (k < b.size() && b[k].first < hi) {
      if (b[k].first > cur) {
        out.emplace_back(cur, b[k].first);
      }
      cur = std::max(cur, b[k].second);
      if (cur >= hi) {
        break;
      }
      ++k;
    }
    if (cur < hi) {
      out.emplace_back(cur, hi);
    }
  }
  return out;
}

double Total(const Intervals& iv) {
  double total = 0.0;
  for (const auto& [lo, hi] : iv) {
    total += hi - lo;
  }
  return total;
}

// Parses a worker index out of "worker<w>/gpu"-style track names; -1 when
// the prefix does not match or no digits follow.
int WorkerOf(const std::string& track, const std::string& prefix) {
  if (track.size() <= prefix.size() || track.compare(0, prefix.size(), prefix) != 0) {
    return -1;
  }
  int w = 0;
  bool any = false;
  for (size_t i = prefix.size(); i < track.size(); ++i) {
    const char c = track[i];
    if (c < '0' || c > '9') {
      break;
    }
    w = w * 10 + (c - '0');
    any = true;
  }
  return any ? w : -1;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Parses "b<k>_0" (a worker's last backprop op of iteration k); -1 otherwise.
int BpEndIter(const std::string& name) {
  if (name.size() < 3 || name[0] != 'b') {
    return -1;
  }
  size_t i = 1;
  int k = 0;
  bool any = false;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    k = k * 10 + (name[i] - '0');
    any = true;
    ++i;
  }
  if (!any || i + 2 != name.size() || name[i] != '_' || name[i + 1] != '0') {
    return -1;
  }
  return k;
}

struct WorkerTimeline {
  Intervals compute;    // worker<w>/gpu spans
  Intervals credit;     // sched/w<w> *.credit_wait spans
  Intervals recovery;   // sched/w<w> *.wait spans with attempt >= 1
  Intervals transport;  // worker<w>/comm + net/worker<w>.* + attempt-0 waits
  std::vector<double> bp_end;  // per-iteration last-backprop end
};

}  // namespace

double CriticalPathReport::MinCoverage() const {
  double min_cov = 1.0;
  for (const IterationBreakdown& it : iterations) {
    min_cov = std::min(min_cov, it.coverage());
  }
  return min_cov;
}

CriticalPathReport AnalyzeCriticalPath(const CpInput& input, int top_k) {
  CriticalPathReport report;
  std::map<int, WorkerTimeline> workers;
  // PS update spans model the shard-side aggregation each pull waits on; the
  // shards are shared, so the spans count as transport for every worker
  // (priority subtraction keeps them from double-counting anything the
  // worker's own spans already explain).
  Intervals shared_ps;
  double min_ts = std::numeric_limits<double>::infinity();
  int num_iters = 0;

  for (const CpSpan& span : input.spans) {
    min_ts = std::min(min_ts, span.ts_us);
    const double end = span.ts_us + span.dur_us;
    int w;
    if ((w = WorkerOf(span.track, "worker")) >= 0) {
      WorkerTimeline& wt = workers[w];
      if (EndsWith(span.track, "/gpu")) {
        wt.compute.emplace_back(span.ts_us, end);
        const int iter = BpEndIter(span.name);
        if (iter >= 0) {
          if (static_cast<int>(wt.bp_end.size()) <= iter) {
            wt.bp_end.resize(iter + 1, 0.0);
          }
          wt.bp_end[iter] = std::max(wt.bp_end[iter], end);
          num_iters = std::max(num_iters, iter + 1);
        }
      } else if (EndsWith(span.track, "/comm")) {
        wt.transport.emplace_back(span.ts_us, end);
      }
    } else if ((w = WorkerOf(span.track, "sched/w")) >= 0) {
      WorkerTimeline& wt = workers[w];
      if (EndsWith(span.name, ".credit_wait")) {
        wt.credit.emplace_back(span.ts_us, end);
      } else if (EndsWith(span.name, ".wait")) {
        (span.attempt >= 1 ? wt.recovery : wt.transport).emplace_back(span.ts_us, end);
      }
    } else if ((w = WorkerOf(span.track, "net/worker")) >= 0) {
      workers[w].transport.emplace_back(span.ts_us, end);
    } else if (span.track.compare(0, 3, "ps/") == 0) {
      shared_ps.emplace_back(span.ts_us, end);
    }
  }
  if (num_iters == 0 || !std::isfinite(min_ts)) {
    return report;
  }

  shared_ps = Normalize(shared_ps);
  for (auto& [w, wt] : workers) {
    wt.compute = Normalize(wt.compute);
    wt.credit = Normalize(wt.credit);
    wt.recovery = Normalize(wt.recovery);
    wt.transport.insert(wt.transport.end(), shared_ps.begin(), shared_ps.end());
    wt.transport = Normalize(wt.transport);
  }

  // Iteration windows: (slowest bp end of k-1, slowest bp end of k], with the
  // first window opening at the earliest span.
  std::vector<double> iter_end(num_iters, 0.0);
  std::vector<int> critical(num_iters, -1);
  for (const auto& [w, wt] : workers) {
    for (int k = 0; k < static_cast<int>(wt.bp_end.size()); ++k) {
      if (wt.bp_end[k] > iter_end[k]) {
        iter_end[k] = wt.bp_end[k];
        critical[k] = w;
      }
    }
  }

  double window_start = min_ts;
  for (int k = 0; k < num_iters; ++k) {
    IterationBreakdown it;
    it.iter = k;
    it.critical_worker = critical[k];
    it.start_us = window_start;
    it.end_us = iter_end[k];
    window_start = iter_end[k];
    if (it.critical_worker < 0 || it.end_us <= it.start_us) {
      report.iterations.push_back(it);
      continue;
    }
    // Longest-path attribution on the critical worker's timeline: higher-
    // priority components claim their intervals first; each later component
    // only claims time no earlier component explained.
    const WorkerTimeline& wt = workers[it.critical_worker];
    const Intervals comp = Clip(wt.compute, it.start_us, it.end_us);
    const Intervals credit = Subtract(Clip(wt.credit, it.start_us, it.end_us), comp);
    Intervals rec = Subtract(Clip(wt.recovery, it.start_us, it.end_us), comp);
    rec = Subtract(rec, credit);
    Intervals trans = Subtract(Clip(wt.transport, it.start_us, it.end_us), comp);
    trans = Subtract(trans, credit);
    trans = Subtract(trans, rec);
    it.compute_us = Total(comp);
    it.credit_wait_us = Total(credit);
    it.recovery_us = Total(rec);
    it.transport_us = Total(trans);
    report.iterations.push_back(it);
  }

  // Straggler partitions: flow arcs ranked by end-to-end duration.
  std::vector<StragglerPartition> arcs;
  for (const auto& [flow_id, points] : input.flows) {
    if (points.size() < 2) {
      continue;
    }
    StragglerPartition arc;
    arc.flow_id = flow_id;
    arc.start_us = std::numeric_limits<double>::infinity();
    arc.end_us = -std::numeric_limits<double>::infinity();
    for (const CpFlowPoint& p : points) {
      arc.start_us = std::min(arc.start_us, p.ts_us);
      arc.end_us = std::max(arc.end_us, p.ts_us);
      if (p.ph == 's' || arc.name.empty()) {
        arc.name = p.name;
      }
    }
    for (const IterationBreakdown& it : report.iterations) {
      if (arc.start_us >= it.start_us && arc.start_us < it.end_us) {
        arc.iter = it.iter;
        break;
      }
    }
    arcs.push_back(std::move(arc));
  }
  std::sort(arcs.begin(), arcs.end(), [](const StragglerPartition& a,
                                         const StragglerPartition& b) {
    if (a.duration_us() != b.duration_us()) {
      return a.duration_us() > b.duration_us();
    }
    if (a.start_us != b.start_us) {
      return a.start_us < b.start_us;
    }
    return a.flow_id < b.flow_id;
  });
  if (top_k >= 0 && static_cast<int>(arcs.size()) > top_k) {
    arcs.resize(top_k);
  }
  report.stragglers = std::move(arcs);
  return report;
}

void WriteCriticalPathCsv(const CriticalPathReport& report, std::ostream& os) {
  os << "iter,critical_worker,start_us,end_us,total_us,compute_us,transport_us,"
        "credit_wait_us,recovery_us,coverage\n";
  char buf[256];
  for (const IterationBreakdown& it : report.iterations) {
    std::snprintf(buf, sizeof(buf), "%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f\n",
                  it.iter, it.critical_worker, it.start_us, it.end_us, it.total_us(),
                  it.compute_us, it.transport_us, it.credit_wait_us, it.recovery_us,
                  it.coverage());
    os << buf;
  }
}

bool LoadCpInputFromChromeTrace(const std::string& json, CpInput* out, std::string* error) {
  JsonValue root;
  std::string parse_error;
  if (!ParseJson(json, &root, &parse_error) || !root.is_array()) {
    if (error != nullptr) {
      *error = parse_error.empty() ? "not a Chrome trace array" : parse_error;
    }
    return false;
  }
  // Pass 1: tid -> track name from the thread_name metadata events.
  std::map<int, std::string>& track_names = out->track_names;
  for (const JsonValue& ev : root.array) {
    if (!ev.is_object()) {
      continue;
    }
    const JsonValue* ph = ev.Find("ph");
    if (ph == nullptr || ph->StringOr("") != "M") {
      continue;
    }
    const JsonValue* name = ev.Find("name");
    const JsonValue* args = ev.Find("args");
    if (name == nullptr || name->StringOr("") != "thread_name" || args == nullptr) {
      continue;
    }
    const JsonValue* track = args->Find("name");
    const JsonValue* tid = ev.Find("tid");
    if (track != nullptr && track->is_string() && tid != nullptr) {
      track_names[static_cast<int>(tid->IntOr(0))] = track->str;
    }
  }
  // Pass 2: spans and flow points, with tracks resolved.
  for (const JsonValue& ev : root.array) {
    if (!ev.is_object()) {
      continue;
    }
    const JsonValue* ph = ev.Find("ph");
    if (ph == nullptr || !ph->is_string() || ph->str.empty()) {
      continue;
    }
    const JsonValue* tid_value = ev.Find("tid");
    const int tid = tid_value != nullptr ? static_cast<int>(tid_value->IntOr(0)) : 0;
    const auto track_it = track_names.find(tid);
    const std::string track = track_it != track_names.end() ? track_it->second : "";
    const JsonValue* ts = ev.Find("ts");
    const JsonValue* name = ev.Find("name");
    switch (ph->str[0]) {
      case 'X': {
        CpSpan span;
        span.tid = tid;
        span.track = track;
        span.name = name != nullptr ? name->StringOr("") : "";
        span.ts_us = ts != nullptr ? ts->NumberOr(0.0) : 0.0;
        const JsonValue* dur = ev.Find("dur");
        span.dur_us = dur != nullptr ? dur->NumberOr(0.0) : 0.0;
        const JsonValue* args = ev.Find("args");
        if (args != nullptr) {
          const JsonValue* attempt = args->Find("attempt");
          if (attempt != nullptr) {
            span.attempt = static_cast<int>(attempt->IntOr(0));
          }
        }
        out->spans.push_back(std::move(span));
        break;
      }
      case 's':
      case 't':
      case 'f': {
        const JsonValue* id = ev.Find("id");
        if (id != nullptr && id->is_number()) {
          CpFlowPoint point;
          point.tid = tid;
          point.track = track;
          point.name = name != nullptr ? name->StringOr("") : "";
          point.ts_us = ts != nullptr ? ts->NumberOr(0.0) : 0.0;
          point.ph = ph->str[0];
          out->flows[static_cast<uint64_t>(id->number)].push_back(std::move(point));
        }
        break;
      }
      default:
        break;
    }
  }
  return true;
}

}  // namespace bsched::obs
