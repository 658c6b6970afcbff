// Critical-path analyzer: replays a recorded trace (compute spans, scheduler
// wait spans, link/PS spans, and the per-partition Perfetto flow arcs) into a
// per-iteration decomposition of wall-clock time — how much of each
// iteration is attributable to compute, transport, credit-wait, and
// retransmit recovery — plus the top-k straggler partitions by flow-arc
// duration. This is the DAG-of-S-SGD lens (Shi et al.): the iteration is
// bounded by its slowest worker, and that worker's timeline decomposes into
// the four resources the scheduler can trade against each other.
//
// Inputs are producer-agnostic plain structs; bench/obs_report fills them
// from a Chrome trace JSON (LoadCpInputFromChromeTrace) and builds its whole
// trace report from them, tests can fill them synthetically or round-trip a
// TraceRecorder through the same loader.
#ifndef SRC_OBS_CRITICAL_PATH_H_
#define SRC_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace bsched::obs {

// ---- interval sets ---------------------------------------------------------
// Closed-open [start, end) microsecond intervals. A normalized list is sorted
// and disjoint; Clip, Subtract, Total and IntersectionLength take normalized
// lists.
using Intervals = std::vector<std::pair<double, double>>;

// Sorts, drops empty intervals and merges touching or overlapping ones.
Intervals Normalize(Intervals iv);
// Intersection of `iv` with [lo, hi).
Intervals Clip(const Intervals& iv, double lo, double hi);
// Set difference a \ b.
Intervals Subtract(const Intervals& a, const Intervals& b);
// Summed length.
double Total(const Intervals& iv);
// Summed length of a ∩ b.
double IntersectionLength(const Intervals& a, const Intervals& b);

// Parses the worker index out of a "<prefix><w>..." track name, e.g.
// WorkerOf("worker3/gpu", "worker") == 3; -1 when the prefix does not match
// or no digits follow.
int WorkerOf(const std::string& track, const std::string& prefix);

// One complete span ("X" event): its track id and that track's name.
struct CpSpan {
  int tid = 0;
  std::string track;
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  // The scheduler wait spans' "attempt" arg (0 = first admission; >= 1 means
  // the wait preceded a retry, i.e. retransmit recovery time).
  int attempt = 0;
};

// One flow event ("s"/"t"/"f") of a partition's arc.
struct CpFlowPoint {
  int tid = 0;
  std::string track;
  std::string name;
  double ts_us = 0.0;
  char ph = 't';
};

struct CpInput {
  std::map<int, std::string> track_names;  // tid -> thread_name metadata
  std::vector<CpSpan> spans;
  std::map<uint64_t, std::vector<CpFlowPoint>> flows;  // flow id -> points
};

// Longest-path decomposition of one iteration: the window ends at the
// slowest worker's last backprop op, and that worker's timeline is
// attributed by priority — compute, then credit-wait, then recovery, then
// transport — with overlaps subtracted so the components never double-count.
struct IterationBreakdown {
  int iter = 0;
  int critical_worker = -1;
  double start_us = 0.0;
  double end_us = 0.0;
  double compute_us = 0.0;
  double credit_wait_us = 0.0;
  double recovery_us = 0.0;
  double transport_us = 0.0;

  double total_us() const { return end_us - start_us; }
  double attributed_us() const {
    return compute_us + credit_wait_us + recovery_us + transport_us;
  }
  // Fraction of the iteration's wall-clock the four components explain.
  double coverage() const { return total_us() > 0 ? attributed_us() / total_us() : 1.0; }
};

// One straggler partition: a flow arc ranked by end-to-end duration.
struct StragglerPartition {
  uint64_t flow_id = 0;
  std::string name;  // the arc-opening admit flow event's name
  int iter = -1;     // iteration window containing the arc start (-1: warmup edge)
  double start_us = 0.0;
  double end_us = 0.0;

  double duration_us() const { return end_us - start_us; }
};

struct CriticalPathReport {
  std::vector<IterationBreakdown> iterations;
  std::vector<StragglerPartition> stragglers;  // top-k, longest first

  // Smallest per-iteration coverage (1.0 when there are no iterations).
  double MinCoverage() const;
};

// Analyzes the trace. Iteration k's window is (end of iteration k-1's
// slowest backprop, end of iteration k's]; iteration 0 starts at the
// earliest span. Returns an empty report when the trace has no per-worker
// backprop spans (e.g. metrics-only captures).
CriticalPathReport AnalyzeCriticalPath(const CpInput& input, int top_k = 5);

// CSV for the decomposition figure family: one row per iteration.
//   iter,critical_worker,start_us,end_us,total_us,compute_us,transport_us,
//   credit_wait_us,recovery_us,coverage
void WriteCriticalPathCsv(const CriticalPathReport& report, std::ostream& os);

// Fills a CpInput from Chrome trace-event JSON (the TraceRecorder format:
// thread_name metadata + X/s/t/f events). Returns false (with *error set)
// on malformed JSON, on an "X" span whose ts is missing or not a number or
// whose dur is missing, not a number or negative, and on a flow point
// without a numeric ts; the error names the event's index in the array.
bool LoadCpInputFromChromeTrace(const std::string& json, CpInput* out, std::string* error);

}  // namespace bsched::obs

#endif  // SRC_OBS_CRITICAL_PATH_H_
