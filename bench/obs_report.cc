// obs_report: offline inspector for the observability artifacts the figure
// binaries emit (--trace=<path> --metrics=<path>). Loads a Chrome/Perfetto
// trace and/or a metrics snapshot and prints:
//   - per-track utilization (busy time / wall clock),
//   - per-worker compute/communication overlap (the quantity ByteScheduler
//     optimizes — compare against Figure 2),
//   - a straggler summary (per-worker GPU busy-time spread),
//   - flow-arc statistics: how many partition arcs the trace carries and a
//     sample end-to-end path across scheduler/link/shard tracks,
//   - counter / gauge / histogram tables from the metrics snapshot.
//
// Flags: --trace=PATH    Chrome trace JSON (as written by --trace)
//        --metrics=PATH  metrics snapshot JSON (as written by --metrics)
//        --timeseries=PATH  sim-time series CSV (as written by --timeseries);
//                        prints the timeline section (per scope/metric
//                        aggregate of the sampled series)
//        --critical-path replay the trace's flow arcs into a per-iteration
//                        critical-path decomposition (compute / transport /
//                        credit-wait / recovery) plus top-k stragglers
//        --critical-path-csv=PATH  also export the decomposition as CSV
//                        (one row per iteration; implies --critical-path)
//        --top-k=N       straggler partitions to list (default 5)
//        --trace-b=PATH  second trace from an identical run: verify every
//                        span's track id is stable across the two runs
//        --check         validate the artifacts instead of just printing:
//                        exit 1 unless the trace contains at least one flow
//                        arc crossing >= 3 tracks, the snapshot carries the
//                        scheduler/link/fault acceptance metrics, every
//                        --critical-path iteration reaches --min-coverage
//                        and --trace-b track ids match.
//        --min-coverage=F  critical-path coverage --check requires per
//                        iteration, in [0, 1] (default 0.95)
// Any other flag, a negative --top-k or a --min-coverage outside [0, 1] is
// rejected with exit status 2. So is a malformed input file: a trace that is
// not a Chrome trace, a time-series cell the report reads (time, value,
// count, p99) that is not a number, or a metrics counter, gauge or histogram
// field that is not a whole number; the error names the file and the event,
// row or key.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/obs/critical_path.h"
#include "src/obs/json_lite.h"
#include "src/obs/metrics.h"

namespace bsched {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// Reads and parses a Chrome trace once; the report sections, the track
// stability check and the critical-path analysis all read the one CpInput.
bool LoadTrace(const std::string& path, obs::CpInput* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "error: cannot read trace %s\n", path.c_str());
    return false;
  }
  std::string error;
  if (!obs::LoadCpInputFromChromeTrace(text, out, &error)) {
    std::fprintf(stderr, "error: %s is not a valid Chrome trace (%s)\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

// A metrics value the report reads: a JSON number that is a whole number in
// [min, 2^63).
bool WholeNumber(const obs::JsonValue& v, int64_t min, int64_t* out) {
  if (!v.is_number() || v.number != std::floor(v.number) ||
      v.number < static_cast<double>(min) || v.number >= 0x1p63) {
    return false;
  }
  *out = static_cast<int64_t>(v.number);
  return true;
}

bool LoadMetrics(const std::string& path, MetricsSnapshot* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "error: cannot read metrics %s\n", path.c_str());
    return false;
  }
  obs::JsonValue root;
  std::string error;
  if (!obs::ParseJson(text, &root, &error) || !root.is_object()) {
    std::fprintf(stderr, "error: %s is not a metrics snapshot (%s)\n", path.c_str(),
                 error.c_str());
    return false;
  }
  // Reads `v` into `out`, or reports `section`."`key`" and fails.
  const auto read = [&path](const obs::JsonValue& v, int64_t min, const char* section,
                            const std::string& key, int64_t* out) {
    if (WholeNumber(v, min, out)) {
      return true;
    }
    std::fprintf(stderr, "error: %s: %s.\"%s\" is not a whole number%s\n", path.c_str(),
                 section, key.c_str(), min == 0 ? " >= 0" : "");
    return false;
  };
  constexpr int64_t kAny = std::numeric_limits<int64_t>::min();
  int64_t n = 0;
  if (const obs::JsonValue* counters = root.Find("counters"); counters != nullptr) {
    for (const auto& [name, value] : counters->object) {
      if (!read(value, 0, "counters", name, &n)) return false;
      out->counters[name] = static_cast<uint64_t>(n);
    }
  }
  if (const obs::JsonValue* gauges = root.Find("gauges"); gauges != nullptr) {
    for (const auto& [name, value] : gauges->object) {
      if (!read(value, kAny, "gauges", name, &out->gauges[name])) return false;
    }
  }
  if (const obs::JsonValue* histograms = root.Find("histograms"); histograms != nullptr) {
    for (const auto& [name, value] : histograms->object) {
      HistogramSnapshot snap;
      const obs::JsonValue* count = value.Find("count");
      const obs::JsonValue* sum = value.Find("sum");
      if ((count != nullptr && !read(*count, 0, "histograms", name + ".count", &n)) ||
          (sum != nullptr && !read(*sum, kAny, "histograms", name + ".sum", &snap.sum))) {
        return false;
      }
      snap.count = count != nullptr ? static_cast<uint64_t>(n) : 0;
      if (const obs::JsonValue* buckets = value.Find("buckets");
          buckets != nullptr && buckets->is_array()) {
        for (const obs::JsonValue& pair : buckets->array) {
          int64_t bucket = 0;
          if (!pair.is_array() || pair.array.size() != 2 ||
              !WholeNumber(pair.array[0], std::numeric_limits<int>::min(), &bucket) ||
              bucket > std::numeric_limits<int>::max() || !WholeNumber(pair.array[1], 0, &n)) {
            std::fprintf(stderr, "error: %s: histograms.\"%s.buckets\" holds a malformed pair\n",
                         path.c_str(), name.c_str());
            return false;
          }
          snap.buckets.emplace_back(static_cast<int>(bucket), static_cast<uint64_t>(n));
        }
      }
      out->histograms[name] = std::move(snap);
    }
  }
  return true;
}

// ---- time-series CSV (as written by TimeSeriesRecorder) -------------------

// Aggregate of one (scope, metric) series across all its ticks.
struct SeriesAgg {
  std::string kind;
  uint64_t ticks = 0;
  double last = 0.0;       // value at the final tick (counter/gauge/probe)
  double peak = -1e300;    // max value across ticks
  uint64_t count = 0;      // sketch: total observations across all windows
  double peak_p99 = 0.0;   // sketch: worst per-window p99
};

struct TimelineData {
  std::map<std::pair<std::string, std::string>, SeriesAgg> series;
  int64_t first_ns = 0;
  int64_t second_ns = 0;  // second distinct tick time (cadence = second-first)
  int64_t last_ns = 0;
  uint64_t rows = 0;
};

std::vector<std::string> SplitCsvRow(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

// One cell the report reads: the whole text is one number (for a floating
// `T`, a finite one).
template <typename T>
bool ParseCell(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if constexpr (std::is_floating_point_v<T>) {
    return ec == std::errc() && ptr == end && std::isfinite(*out);
  }
  return ec == std::errc() && ptr == end;
}

bool LoadTimeline(const std::string& path, TimelineData* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "error: cannot read timeseries %s\n", path.c_str());
    return false;
  }
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line.rfind("time_ns,scope,metric,kind,value", 0) != 0) {
    std::fprintf(stderr, "error: %s is not a TimeSeriesRecorder CSV\n", path.c_str());
    return false;
  }
  size_t line_no = 1;
  // Reports the row and the column of a cell that is not a number.
  const auto bad_cell = [&path, &line_no](const char* column, const std::string& cell) {
    std::fprintf(stderr, "error: %s line %zu: %s '%s' is not a number\n", path.c_str(), line_no,
                 column, cell.c_str());
    return false;
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string> f = SplitCsvRow(line);
    if (f.size() < 10) {
      std::fprintf(stderr, "error: %s line %zu: malformed timeseries row: %s\n", path.c_str(),
                   line_no, line.c_str());
      return false;
    }
    int64_t time_ns = 0;
    if (!ParseCell(f[0], &time_ns)) return bad_cell("time_ns", f[0]);
    if (out->rows == 0) {
      out->first_ns = time_ns;
    } else if (out->second_ns == 0 && time_ns > out->first_ns) {
      out->second_ns = time_ns;
    }
    out->last_ns = std::max(out->last_ns, time_ns);
    ++out->rows;
    SeriesAgg& agg = out->series[{f[1], f[2]}];
    agg.kind = f[3];
    ++agg.ticks;
    if (f[3] == "sketch") {
      uint64_t count = 0;
      double p99 = 0.0;
      if (!ParseCell(f[5], &count)) return bad_cell("count", f[5]);
      if (!ParseCell(f[9], &p99)) return bad_cell("p99", f[9]);
      agg.count += count;
      agg.peak_p99 = std::max(agg.peak_p99, p99);
    } else {
      if (!ParseCell(f[4], &agg.last)) return bad_cell("value", f[4]);
      agg.peak = std::max(agg.peak, agg.last);
    }
  }
  return true;
}

std::string TrackName(const obs::CpInput& trace, int tid) {
  const auto it = trace.track_names.find(tid);
  return it != trace.track_names.end() ? it->second : "tid" + std::to_string(tid);
}

int DistinctTracks(const std::vector<obs::CpFlowPoint>& points) {
  std::vector<int> tids;
  for (const obs::CpFlowPoint& p : points) {
    tids.push_back(p.tid);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  return static_cast<int>(tids.size());
}

// ---- report sections ------------------------------------------------------

struct TraceSummary {
  double wall_us = 0.0;
  int multi_track_arcs = 0;  // flow arcs crossing >= 3 distinct tracks
};

TraceSummary ReportTrace(const obs::CpInput& trace) {
  TraceSummary summary;
  std::map<int, obs::Intervals> by_track;
  double first = 1e300;
  double last = -1e300;
  for (const obs::CpSpan& span : trace.spans) {
    by_track[span.tid].emplace_back(span.ts_us, span.ts_us + span.dur_us);
    first = std::min(first, span.ts_us);
    last = std::max(last, span.ts_us + span.dur_us);
  }
  if (trace.spans.empty()) {
    std::printf("trace: no spans\n\n");
    return summary;
  }
  summary.wall_us = last - first;
  std::printf("trace: %zu spans, %zu flow arcs, %zu tracks, wall clock %.3f ms\n",
              trace.spans.size(), trace.flows.size(), by_track.size(), summary.wall_us / 1e3);

  // Per-track utilization.
  Table util({"track", "spans", "busy ms", "util %"});
  std::map<int, obs::Intervals> merged_by_track;
  for (auto& [tid, spans] : by_track) {
    merged_by_track[tid] = obs::Normalize(std::move(spans));
  }
  std::map<int, size_t> span_counts;
  for (const obs::CpSpan& span : trace.spans) {
    ++span_counts[span.tid];
  }
  for (const auto& [tid, merged] : merged_by_track) {
    const double busy = obs::Total(merged);
    util.AddRow({TrackName(trace, tid), std::to_string(span_counts[tid]),
                 Table::Num(busy / 1e3, 3), Table::Num(100.0 * busy / summary.wall_us, 1)});
  }
  std::printf("\n-- track utilization --\n");
  util.RenderAscii(std::cout);

  // Compute/communication overlap per worker (Figure 2's quantity).
  std::map<int, int> gpu_tid;   // worker -> tid of workerN/gpu
  std::map<int, int> comm_tid;  // worker -> tid of workerN/comm
  for (const auto& [tid, name] : trace.track_names) {
    const int worker = obs::WorkerOf(name, "worker");
    const size_t slash = name.find('/');
    if (worker < 0 || slash == std::string::npos) {
      continue;
    }
    const std::string kind = name.substr(slash + 1);
    if (kind == "gpu") {
      gpu_tid[worker] = tid;
    } else if (kind == "comm") {
      comm_tid[worker] = tid;
    }
  }
  if (!gpu_tid.empty() && !comm_tid.empty()) {
    Table overlap({"worker", "gpu ms", "comm ms", "overlap ms", "overlap %"});
    std::vector<double> gpu_busy;
    for (const auto& [worker, gtid] : gpu_tid) {
      const auto ct = comm_tid.find(worker);
      if (ct == comm_tid.end()) {
        continue;
      }
      const obs::Intervals& gpu = merged_by_track[gtid];
      const obs::Intervals& comm = merged_by_track[ct->second];
      const double gpu_ms = obs::Total(gpu) / 1e3;
      const double comm_ms = obs::Total(comm) / 1e3;
      const double both_ms = obs::IntersectionLength(gpu, comm) / 1e3;
      const double denom = std::min(gpu_ms, comm_ms);
      gpu_busy.push_back(gpu_ms);
      overlap.AddRow({std::to_string(worker), Table::Num(gpu_ms, 3), Table::Num(comm_ms, 3),
                      Table::Num(both_ms, 3),
                      Table::Num(denom > 0 ? 100.0 * both_ms / denom : 0.0, 1)});
    }
    std::printf("\n-- compute/communication overlap (cf. Fig. 2) --\n");
    overlap.RenderAscii(std::cout);

    // Straggler summary: spread of per-worker GPU busy time.
    if (gpu_busy.size() > 1) {
      double mean = 0.0;
      for (double b : gpu_busy) {
        mean += b;
      }
      mean /= static_cast<double>(gpu_busy.size());
      const auto slowest = std::max_element(gpu_busy.begin(), gpu_busy.end());
      std::printf("\nstraggler: worker %zu gpu-busy %.3f ms vs mean %.3f ms (%.2fx)\n",
                  static_cast<size_t>(slowest - gpu_busy.begin()), *slowest, mean,
                  mean > 0 ? *slowest / mean : 0.0);
    }
  }

  // Flow arcs: a partition's life across tracks.
  int complete = 0;
  const std::vector<obs::CpFlowPoint>* sample = nullptr;
  for (const auto& [id, points] : trace.flows) {
    bool has_start = false;
    bool has_end = false;
    for (const obs::CpFlowPoint& p : points) {
      has_start |= p.ph == 's';
      has_end |= p.ph == 'f';
    }
    if (has_start && has_end) {
      ++complete;
    }
    if (DistinctTracks(points) >= 3) {
      ++summary.multi_track_arcs;
      if (sample == nullptr && has_start && has_end) {
        sample = &points;
      }
    }
  }
  std::printf("\n-- flow arcs --\n");
  std::printf("arcs: %zu total, %d complete (start+end), %d crossing >= 3 tracks\n",
              trace.flows.size(), complete, summary.multi_track_arcs);
  if (sample != nullptr) {
    std::vector<obs::CpFlowPoint> path = *sample;
    std::stable_sort(path.begin(), path.end(),
                     [](const obs::CpFlowPoint& a, const obs::CpFlowPoint& b) {
                       return a.ts_us < b.ts_us;
                     });
    std::printf("sample arc:");
    for (const obs::CpFlowPoint& p : path) {
      std::printf(" -> %s", TrackName(trace, p.tid).c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");
  return summary;
}

void ReportMetrics(const MetricsSnapshot& metrics) {
  if (!metrics.counters.empty()) {
    Table table({"counter", "value"});
    for (const auto& [name, value] : metrics.counters) {
      table.AddRow({name, std::to_string(value)});
    }
    std::printf("-- counters --\n");
    table.RenderAscii(std::cout);
    std::printf("\n");
  }
  if (!metrics.gauges.empty()) {
    Table table({"gauge", "value"});
    for (const auto& [name, value] : metrics.gauges) {
      table.AddRow({name, std::to_string(value)});
    }
    std::printf("-- gauges --\n");
    table.RenderAscii(std::cout);
    std::printf("\n");
  }
  if (!metrics.histograms.empty()) {
    Table table({"histogram", "count", "mean", "p50", "p90", "p99"});
    for (const auto& [name, snap] : metrics.histograms) {
      const double mean =
          snap.count > 0 ? static_cast<double>(snap.sum) / static_cast<double>(snap.count) : 0.0;
      const std::vector<double> p = snap.Percentiles({50, 90, 99});
      table.AddRow({name, std::to_string(snap.count), Table::Num(mean, 1), Table::Num(p[0], 1),
                    Table::Num(p[1], 1), Table::Num(p[2], 1)});
    }
    std::printf("-- histograms (log2 buckets; quantiles approximate) --\n");
    table.RenderAscii(std::cout);
    std::printf("\n");
  }
}

void ReportTimeline(const TimelineData& timeline) {
  std::printf("-- timeline (sim-time series) --\n");
  const int64_t cadence =
      timeline.second_ns > timeline.first_ns ? timeline.second_ns - timeline.first_ns : 0;
  std::printf("%llu rows, %zu series, sim time %.3f..%.3f ms, cadence %.1f us\n",
              static_cast<unsigned long long>(timeline.rows), timeline.series.size(),
              static_cast<double>(timeline.first_ns) / 1e6,
              static_cast<double>(timeline.last_ns) / 1e6, static_cast<double>(cadence) / 1e3);
  Table table({"scope", "metric", "kind", "ticks", "last", "peak", "obs", "peak p99"});
  for (const auto& [key, agg] : timeline.series) {
    const bool sketch = agg.kind == "sketch";
    table.AddRow({key.first, key.second, agg.kind, std::to_string(agg.ticks),
                  sketch ? "-" : Table::Num(agg.last, 0), sketch ? "-" : Table::Num(agg.peak, 0),
                  sketch ? std::to_string(agg.count) : "-",
                  sketch ? Table::Num(agg.peak_p99, 0) : "-"});
  }
  table.RenderAscii(std::cout);
  std::printf("\n");
}

obs::CriticalPathReport ReportCriticalPath(const obs::CpInput& trace, int top_k,
                                           const std::string& csv_path) {
  obs::CriticalPathReport report = obs::AnalyzeCriticalPath(trace, top_k);
  std::printf("-- critical path (per-iteration longest-path decomposition) --\n");
  if (report.iterations.empty()) {
    std::printf("no iteration windows (trace carries no per-worker backprop spans)\n\n");
    return report;
  }
  Table table({"iter", "worker", "total ms", "compute %", "transport %", "credit-wait %",
               "recovery %", "coverage %"});
  for (const obs::IterationBreakdown& it : report.iterations) {
    const double total = it.total_us();
    auto pct = [total](double us) { return total > 0 ? 100.0 * us / total : 0.0; };
    table.AddRow({std::to_string(it.iter), std::to_string(it.critical_worker),
                  Table::Num(total / 1e3, 3), Table::Num(pct(it.compute_us), 1),
                  Table::Num(pct(it.transport_us), 1), Table::Num(pct(it.credit_wait_us), 1),
                  Table::Num(pct(it.recovery_us), 1), Table::Num(100.0 * it.coverage(), 1)});
  }
  table.RenderAscii(std::cout);
  std::printf("min coverage: %.1f%%\n", 100.0 * report.MinCoverage());
  if (!report.stragglers.empty()) {
    Table straggle({"rank", "partition", "iter", "duration us"});
    for (size_t i = 0; i < report.stragglers.size(); ++i) {
      const obs::StragglerPartition& s = report.stragglers[i];
      straggle.AddRow({std::to_string(i + 1), s.name, std::to_string(s.iter),
                       Table::Num(s.duration_us(), 1)});
    }
    std::printf("\n-- straggler partitions (longest flow arcs) --\n");
    straggle.RenderAscii(std::cout);
  }
  std::printf("\n");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    obs::WriteCriticalPathCsv(report, out);
    std::printf("critical-path csv: %s (%zu iterations)\n\n", csv_path.c_str(),
                report.iterations.size());
  }
  return report;
}

// Satellite check: span track ids must be stable across two identical runs —
// the TraceRecorder assigns tids in first-use order, so any cross-run drift
// means the instrumented run's track creation order is nondeterministic.
bool CheckTrackStability(const obs::CpInput& a, const obs::CpInput& b) {
  bool ok = true;
  for (const auto& [tid, name] : a.track_names) {
    const auto it = b.track_names.find(tid);
    if (it == b.track_names.end()) {
      std::fprintf(stderr, "TRACK MISMATCH: tid %d (%s) missing from second trace\n", tid,
                   name.c_str());
      ok = false;
    } else if (it->second != name) {
      std::fprintf(stderr, "TRACK MISMATCH: tid %d is %s vs %s\n", tid, name.c_str(),
                   it->second.c_str());
      ok = false;
    }
  }
  for (const auto& [tid, name] : b.track_names) {
    if (a.track_names.find(tid) == a.track_names.end()) {
      std::fprintf(stderr, "TRACK MISMATCH: tid %d (%s) missing from first trace\n", tid,
                   name.c_str());
      ok = false;
    }
  }
  std::map<int, size_t> spans_a;
  std::map<int, size_t> spans_b;
  for (const obs::CpSpan& s : a.spans) {
    ++spans_a[s.tid];
  }
  for (const obs::CpSpan& s : b.spans) {
    ++spans_b[s.tid];
  }
  if (spans_a != spans_b) {
    std::fprintf(stderr, "TRACK MISMATCH: per-track span counts differ between runs\n");
    ok = false;
  }
  std::printf("-- track stability --\n%s: %zu tracks, %zu spans vs %zu spans\n\n",
              ok ? "stable" : "UNSTABLE", a.track_names.size(), a.spans.size(),
              b.spans.size());
  return ok;
}

// Acceptance validation: the artifacts carry an end-to-end partition arc and
// the scheduler/link/fault metrics the figures rely on.
bool CheckArtifacts(bool have_trace, const TraceSummary& trace_summary, bool have_metrics,
                    const MetricsSnapshot& metrics) {
  bool ok = true;
  if (have_trace && trace_summary.multi_track_arcs < 1) {
    std::fprintf(stderr, "CHECK FAILED: no flow arc crosses >= 3 tracks\n");
    ok = false;
  }
  if (have_metrics) {
    auto has_histogram = [&](const std::string& suffix) {
      for (const auto& [name, snap] : metrics.histograms) {
        if (name.rfind("sched.", 0) == 0 && name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
            snap.count > 0) {
          return true;
        }
      }
      return false;
    };
    if (!has_histogram(".queue_depth")) {
      std::fprintf(stderr, "CHECK FAILED: no populated sched.*.queue_depth histogram\n");
      ok = false;
    }
    if (!has_histogram(".credit_in_use")) {
      std::fprintf(stderr, "CHECK FAILED: no populated sched.*.credit_in_use histogram\n");
      ok = false;
    }
    bool link_busy = false;
    for (const auto& entry : metrics.gauges) {
      static const std::string kSuffix = ".busy_ns";
      const std::string& name = entry.first;
      if (name.rfind("net.", 0) == 0 && name.size() > kSuffix.size() &&
          name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0) {
        link_busy = true;
        break;
      }
    }
    if (!link_busy) {
      std::fprintf(stderr, "CHECK FAILED: no net.*.busy_ns gauge\n");
      ok = false;
    }
    if (metrics.counters.find("fault.core_retries") == metrics.counters.end()) {
      std::fprintf(stderr, "CHECK FAILED: no fault.core_retries counter\n");
      ok = false;
    }
  }
  return ok;
}

}  // namespace
}  // namespace bsched

int main(int argc, char** argv) {
  using namespace bsched;

  const Flags flags(argc, argv);
  if (!flags.CheckNames(argv[0], {"trace", "metrics", "timeseries", "critical-path",
                                  "critical-path-csv", "top-k", "trace-b", "check",
                                  "min-coverage"})) {
    return 2;
  }
  const std::string trace_path = flags.GetString("trace", "");
  const std::string metrics_path = flags.GetString("metrics", "");
  const std::string trace_b_path = flags.GetString("trace-b", "");
  const std::string timeseries_path = flags.GetString("timeseries", "");
  const std::string cp_csv_path = flags.GetString("critical-path-csv", "");
  const bool critical_path = flags.GetBool("critical-path", false) || !cp_csv_path.empty();
  const int64_t top_k = flags.GetInt("top-k", 5);
  const double min_coverage = flags.GetDouble("min-coverage", 0.95);
  const bool check = flags.GetBool("check", false);
  // A value outside its range exits 2 naming the flag: a negative --top-k
  // would list every arc, and a --min-coverage below 0 would pass any trace.
  if (top_k < 0 || top_k > std::numeric_limits<int>::max()) {
    flags.RejectValue("top-k", "a whole number >= 0");
  }
  if (min_coverage < 0 || min_coverage > 1) {
    flags.RejectValue("min-coverage", "a number in [0, 1]");
  }
  if (trace_path.empty() && metrics_path.empty() && timeseries_path.empty()) {
    std::fprintf(stderr,
                 "usage: obs_report --trace=trace.json --metrics=metrics.json\n"
                 "                  [--timeseries=timeseries.csv] [--critical-path]\n"
                 "                  [--critical-path-csv=PATH] [--trace-b=PATH] [--check]\n"
                 "(produce the inputs with e.g. `quickstart --obs`)\n");
    return 2;
  }
  if (critical_path && trace_path.empty()) {
    std::fprintf(stderr, "error: --critical-path needs --trace=PATH\n");
    return 2;
  }

  obs::CpInput trace;
  TraceSummary trace_summary;
  const bool have_trace = !trace_path.empty();
  if (have_trace) {
    if (!LoadTrace(trace_path, &trace)) {
      return 2;
    }
    trace_summary = ReportTrace(trace);
  }

  bool tracks_stable = true;
  if (!trace_b_path.empty()) {
    if (!have_trace) {
      std::fprintf(stderr, "error: --trace-b needs --trace=PATH\n");
      return 2;
    }
    obs::CpInput trace_b;
    if (!LoadTrace(trace_b_path, &trace_b)) {
      return 2;
    }
    tracks_stable = CheckTrackStability(trace, trace_b);
  }

  obs::CriticalPathReport cp_report;
  if (critical_path) {
    cp_report = ReportCriticalPath(trace, static_cast<int>(top_k), cp_csv_path);
  }

  TimelineData timeline;
  const bool have_timeline = !timeseries_path.empty();
  if (have_timeline) {
    if (!LoadTimeline(timeseries_path, &timeline)) {
      return 2;
    }
    ReportTimeline(timeline);
  }

  MetricsSnapshot metrics;
  const bool have_metrics = !metrics_path.empty();
  if (have_metrics) {
    if (!LoadMetrics(metrics_path, &metrics)) {
      return 2;
    }
    ReportMetrics(metrics);
  }

  if (check) {
    bool ok = CheckArtifacts(have_trace, trace_summary, have_metrics, metrics);
    if (!tracks_stable) {
      std::fprintf(stderr, "CHECK FAILED: span track ids differ between identical runs\n");
      ok = false;
    }
    if (critical_path) {
      if (cp_report.iterations.empty()) {
        std::fprintf(stderr, "CHECK FAILED: critical-path analysis produced no iterations\n");
        ok = false;
      } else if (cp_report.MinCoverage() < min_coverage) {
        std::fprintf(stderr, "CHECK FAILED: critical-path coverage %.3f < %.3f\n",
                     cp_report.MinCoverage(), min_coverage);
        ok = false;
      }
    }
    if (have_timeline && timeline.rows == 0) {
      std::fprintf(stderr, "CHECK FAILED: timeseries CSV carries no sample rows\n");
      ok = false;
    }
    if (!ok) {
      return 1;
    }
    std::printf("check: OK\n");
  }
  return 0;
}
