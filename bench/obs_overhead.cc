// Instrumentation-overhead benchmark: proves the observability layer is
// zero-cost when disabled and cheap when enabled.
//
//  1. Event-loop churn (the micro_sim workload, shared via bench/churn.h)
//     with instrumentation disabled, compared against the BENCH_sim.json
//     baseline micro_sim wrote: the hook sites compiled into the hot paths
//     must not cost measurable events/sec. Slower than the baseline by more
//     than --tolerance fails the run (exit 1) — the zero-cost-when-disabled
//     assertion wired into `ctest -L perf` (default 3%; the ctest invocation
//     widens it above the CI container's cross-process noise floor, and a
//     miss is confirmed with a re-measure before failing).
//  2. The same churn with a TimeSeriesRecorder ticking on the simulator
//     every simulated millisecond (counter + gauge + sketch sources): the
//     sampling-enabled event loop must stay within --sampling-tolerance of
//     the same baseline (default 5%), or the run fails — re-measured once
//     before failing, like the disabled gate.
//  3. A reference training job in three modes — off / metrics / metrics +
//     trace — reporting the enabled-mode wall-clock overhead (informational;
//     enabled tracing allocates span strings and is allowed to cost more).
//
// Writes BENCH_obs.json next to BENCH_sim.json.
//
// Flags: --rounds N        best-of rounds per measurement (default 3)
//        --churn-events N  events per churn round (default 300000)
//        --out PATH        output JSON (default BENCH_obs.json)
//        --baseline PATH   BENCH_sim.json to compare against (missing file
//                          or empty path skips the comparison)
//        --tolerance F     allowed slowdown vs baseline (default 0.03)
//        --sampling-tolerance F  allowed sampling-enabled slowdown vs the
//                          same baseline (default 0.05)
// Any other flag is rejected with exit status 2.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/churn.h"
#include "src/common/flags.h"
#include "src/common/trace.h"
#include "src/model/zoo.h"
#include "src/obs/json_lite.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

enum class ObsMode { kOff, kMetrics, kMetricsAndTrace };

JobConfig ReferenceJob() {
  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsRdma();
  job.num_machines = 2;
  job.bandwidth = Bandwidth::Gbps(100);
  job.mode = SchedMode::kByteScheduler;
  job.warmup_iters = 1;
  job.measure_iters = 2;
  return job;
}

// Best-of wall-clock seconds of the reference job in one observability mode.
// Each timed round runs the job several times (a single simulation finishes
// in ~1 ms, too short to time) with fresh sinks per run, so enabled-mode
// costs include sink writes but not file I/O.
double MeasureJobSec(ObsMode mode, int rounds) {
  constexpr int kRepsPerRound = 20;
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kRepsPerRound; ++rep) {
      TraceRecorder trace;
      MetricsRegistry metrics;
      JobConfig job = ReferenceJob();
      if (mode != ObsMode::kOff) {
        job.metrics = &metrics;
      }
      if (mode == ObsMode::kMetricsAndTrace) {
        job.trace = &trace;
      }
      RunTrainingJob(job);
    }
    best = std::min(best, bench::SecondsSince(start) / kRepsPerRound);
  }
  return best;
}

// The churn workload with sampling enabled: a TimeSeriesRecorder scope ticks
// on the churn simulator every simulated millisecond, sampling a counter, a
// gauge and a sketch from a registry populated before the run. The churn sim
// advances ~100ns per link plus the 50ms retry-timer tail, so a round sees
// tick events interleaved throughout — the cost being gated is the recorder's
// timer chain and row formatting, on top of the identical event-loop work.
bench::ChurnResult MeasureSamplingChurn(int events, int rounds, uint64_t* ticks_out) {
  bench::ChurnResult best;
  for (int r = 0; r < rounds; ++r) {
    Simulator sim;
    MetricsRegistry registry;
    registry.counter("churn.links")->Inc(static_cast<uint64_t>(events));
    registry.gauge("churn.lane")->Set(events);
    Histogram* payload = registry.histogram("churn.payload");
    for (int i = 0; i < 16; ++i) {
      payload->Observe(100 + i);
    }
    TimeSeriesRecorder recorder(&registry, SimTime::Millis(1));
    const int scope =
        recorder.AddScope("churn", &sim, [&sim] { return sim.PendingEvents() > 0; });
    recorder.SampleCounter(scope, "churn.links");
    recorder.SampleGauge(scope, "churn.lane");
    recorder.SampleSketch(scope, "churn.payload");
    recorder.Start();
    const double start = bench::CpuSeconds();
    const uint64_t checksum = bench::RunChurn<Simulator, EventHandle>(sim, events);
    const double sec = bench::CpuSeconds() - start;
    const double rate = 2.0 * events / sec;
    if (rate > best.events_per_sec) {
      best.events_per_sec = rate;
      *ticks_out = recorder.total_ticks();
    }
    best.checksum = checksum;
  }
  return best;
}

// events_per_sec from a BENCH_sim.json; 0 when the file is missing or does
// not parse.
double BaselineEventsPerSec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return 0.0;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  obs::JsonValue root;
  std::string error;
  if (!obs::ParseJson(buffer.str(), &root, &error)) {
    std::fprintf(stderr, "warning: cannot parse %s: %s\n", path.c_str(), error.c_str());
    return 0.0;
  }
  const obs::JsonValue* loop = root.Find("event_loop");
  if (loop == nullptr) {
    return 0.0;
  }
  const obs::JsonValue* rate = loop->Find("events_per_sec");
  return rate != nullptr ? rate->NumberOr(0.0) : 0.0;
}

}  // namespace
}  // namespace bsched

int main(int argc, char** argv) {
  using namespace bsched;

  const Flags flags(argc, argv);
  if (!flags.CheckNames(argv[0], {"rounds", "churn-events", "out", "baseline", "tolerance",
                                  "sampling-tolerance"})) {
    return 2;
  }
  const int rounds = static_cast<int>(flags.GetInt("rounds", 3));
  const int churn_events = static_cast<int>(flags.GetInt("churn-events", 300000));
  const std::string out_path = flags.GetString("out", "BENCH_obs.json");
  const std::string baseline_path = flags.GetString("baseline", "BENCH_sim.json");
  const double tolerance = flags.GetDouble("tolerance", 0.03);
  const double sampling_tolerance = flags.GetDouble("sampling-tolerance", 0.05);

  std::printf("obs_overhead: instrumentation cost (rounds=%d)\n", rounds);

  // 1. Disabled-instrumentation event loop vs the micro_sim baseline.
  const bench::ChurnResult churn =
      bench::MeasureChurn<Simulator, EventHandle>(churn_events, rounds);
  const double baseline = BaselineEventsPerSec(baseline_path);
  double slowdown = 0.0;
  bool within_tolerance = true;
  if (baseline > 0.0) {
    double rate = churn.events_per_sec;
    if (1.0 - rate / baseline > tolerance) {
      // The baseline comes from a different process window; confirm a miss
      // with an independent re-measure so container noise has to strike
      // twice before the gate trips.
      const bench::ChurnResult confirm =
          bench::MeasureChurn<Simulator, EventHandle>(churn_events, rounds);
      rate = std::max(rate, confirm.events_per_sec);
    }
    slowdown = 1.0 - rate / baseline;
    within_tolerance = slowdown <= tolerance;
    std::printf("  event loop (obs disabled): %.2fM events/sec vs baseline %.2fM (%+.1f%%)%s\n",
                churn.events_per_sec / 1e6, baseline / 1e6, -100.0 * slowdown,
                within_tolerance ? "" : "  ** EXCEEDS TOLERANCE **");
  } else {
    std::printf("  event loop (obs disabled): %.2fM events/sec (no baseline at %s)\n",
                churn.events_per_sec / 1e6, baseline_path.c_str());
  }

  // 2. Sampling-enabled event loop vs the same baseline (the churn overhead
  //    gate the time-series recorder must stay under).
  uint64_t sampling_ticks = 0;
  bench::ChurnResult sampling =
      MeasureSamplingChurn(churn_events, rounds, &sampling_ticks);
  double sampling_slowdown = 0.0;
  bool sampling_within_tolerance = true;
  if (baseline > 0.0) {
    double rate = sampling.events_per_sec;
    if (1.0 - rate / baseline > sampling_tolerance) {
      uint64_t confirm_ticks = 0;
      const bench::ChurnResult confirm =
          MeasureSamplingChurn(churn_events, rounds, &confirm_ticks);
      rate = std::max(rate, confirm.events_per_sec);
    }
    sampling_slowdown = 1.0 - rate / baseline;
    sampling_within_tolerance = sampling_slowdown <= sampling_tolerance;
    std::printf(
        "  event loop (sampling on): %.2fM events/sec vs baseline %.2fM (%+.1f%%, %llu ticks)%s\n",
        sampling.events_per_sec / 1e6, baseline / 1e6, -100.0 * sampling_slowdown,
        static_cast<unsigned long long>(sampling_ticks),
        sampling_within_tolerance ? "" : "  ** EXCEEDS TOLERANCE **");
  } else {
    std::printf("  event loop (sampling on): %.2fM events/sec, %llu ticks (no baseline at %s)\n",
                sampling.events_per_sec / 1e6,
                static_cast<unsigned long long>(sampling_ticks), baseline_path.c_str());
  }

  // 3. Enabled-mode cost on a reference training job (informational).
  const double off_sec = MeasureJobSec(ObsMode::kOff, rounds);
  const double metrics_sec = MeasureJobSec(ObsMode::kMetrics, rounds);
  const double full_sec = MeasureJobSec(ObsMode::kMetricsAndTrace, rounds);
  std::printf("  reference job: off %.3fs, +metrics %.3fs (%+.1f%%), +trace %.3fs (%+.1f%%)\n",
              off_sec, metrics_sec, 100.0 * (metrics_sec / off_sec - 1.0), full_sec,
              100.0 * (full_sec / off_sec - 1.0));

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"obs_overhead\",\n");
  std::fprintf(out, "  \"rounds\": %d,\n", rounds);
  std::fprintf(out, "  \"event_loop_disabled\": {\n");
  std::fprintf(out, "    \"events\": %d,\n", churn_events);
  std::fprintf(out, "    \"events_per_sec\": %.0f,\n", churn.events_per_sec);
  std::fprintf(out, "    \"baseline_events_per_sec\": %.0f,\n", baseline);
  std::fprintf(out, "    \"slowdown\": %.4f,\n", slowdown);
  std::fprintf(out, "    \"tolerance\": %.4f,\n", tolerance);
  std::fprintf(out, "    \"within_tolerance\": %s\n", within_tolerance ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"event_loop_sampling\": {\n");
  std::fprintf(out, "    \"events\": %d,\n", churn_events);
  std::fprintf(out, "    \"ticks\": %llu,\n", static_cast<unsigned long long>(sampling_ticks));
  std::fprintf(out, "    \"events_per_sec\": %.0f,\n", sampling.events_per_sec);
  std::fprintf(out, "    \"baseline_events_per_sec\": %.0f,\n", baseline);
  std::fprintf(out, "    \"slowdown\": %.4f,\n", sampling_slowdown);
  std::fprintf(out, "    \"tolerance\": %.4f,\n", sampling_tolerance);
  std::fprintf(out, "    \"within_tolerance\": %s\n",
               sampling_within_tolerance ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"reference_job\": {\n");
  std::fprintf(out, "    \"off_sec\": %.4f,\n", off_sec);
  std::fprintf(out, "    \"metrics_sec\": %.4f,\n", metrics_sec);
  std::fprintf(out, "    \"metrics_trace_sec\": %.4f,\n", full_sec);
  std::fprintf(out, "    \"metrics_overhead\": %.4f,\n", metrics_sec / off_sec - 1.0);
  std::fprintf(out, "    \"metrics_trace_overhead\": %.4f\n", full_sec / off_sec - 1.0);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("  wrote %s\n", out_path.c_str());
  return within_tolerance && sampling_within_tolerance ? 0 : 1;
}
