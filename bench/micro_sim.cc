// Perf baseline harness: measures the discrete-event loop on a synthetic
// churn workload (schedule / cancel / nested reschedule, the pattern the
// scheduler's retry timers and transport completions produce) and the
// wall-clock of one reference figure sweep at --jobs 1 vs --jobs N, then
// writes BENCH_sim.json so future PRs can compare against this baseline.
//
// The event loop is measured twice in one process, in alternating rounds:
// with sampling off (the bare Simulator) and with sampling on (a
// TimeSeriesRecorder ticking on the same Simulator every simulated
// millisecond). Both sides must agree on the workload checksum, or the run
// exits 1. Two gates then apply, each confirmed by an independent re-measure
// before it fails the run (exit 1):
//  - sampling overhead (1 - on/off) above kMaxSamplingOverhead;
//  - when the output file from a previous run exists (or --baseline points
//    at one), sampling-off churn throughput more than --max-regression below
//    it — the cross-build `ctest -L perf` regression gate. A baseline file
//    that exists but does not parse, or lacks a positive
//    event_loop.events_per_sec, exits 1 instead of skipping the gate.
//
// Flags: --jobs N          parallel sweep workers (default: hardware concurrency)
//        --out PATH        output JSON path (default: BENCH_sim.json)
//        --baseline PATH   prior BENCH_sim.json to gate against (default: --out)
//        --churn-events N  events per churn round, > 0 (default: 300000)
//        --rounds N        churn rounds per side, best-of, > 0 (default: 3)
//        --skip-sweep      measure the event loop only (quick smoke mode)
//        --max-regression F  allowed churn slowdown vs baseline
//                            (default 0.10 — the >10% regression gate)
// A non-positive --churn-events or --rounds exits 2 before anything runs.
// The regression default assumes reasonably quiet hardware; CI on
// oversubscribed containers passes a wider value (see bench/CMakeLists.txt).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/exec/sweep_runner.h"
#include "src/model/zoo.h"
#include "src/obs/json_lite.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

// Largest allowed sampling overhead, 1 - (sampling-on rate / sampling-off
// rate). Both sides run in one process in alternating rounds, so host
// noise hits them alike; see EXPERIMENTS.md §Benchmark methodology for the
// measured spread behind this bound.
constexpr double kMaxSamplingOverhead = 0.15;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Process CPU time. The churn rates are computed from this rather than wall
// time: on shared/oversubscribed containers a measurement window can lose the
// CPU for entire scheduler quanta, which shows up as 20%+ wall-clock noise
// while the CPU-time rate stays within a few percent — and a single-threaded
// event-loop benchmark burns CPU the whole round, so the two agree whenever
// the host is quiet.
double CpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

// ---- churn workload -------------------------------------------------------

// The workload every timer-heavy subsystem generates: each fired event
// reschedules a successor carrying ~40 bytes of captured state, arms a
// "retry timer" a few steps out, and cancels the previous timer — so a
// third of all scheduled events die cancelled, some only at queue head.
uint64_t RunChurn(Simulator& sim, int events) {
  uint64_t checksum = 0;
  EventHandle retry_timer;
  int remaining = events;
  std::function<void(int)> chain = [&](int lane) {
    checksum += static_cast<uint64_t>(lane);
    if (--remaining <= 0) {
      return;
    }
    retry_timer.Cancel();
    // The successor captures the lane, a payload, and the chain itself.
    const int64_t payload = remaining;
    sim.Schedule(SimTime::Nanos(100 + lane), [&chain, lane, payload] {
      chain((lane + static_cast<int>(payload)) % 7);
    });
    retry_timer = sim.Schedule(SimTime::Millis(50), [&checksum] { checksum += 1; });
  };
  chain(0);
  sim.Run();
  return checksum;
}

struct ChurnRound {
  double events_per_sec = 0.0;
  uint64_t checksum = 0;
  uint64_t ticks = 0;  // recorder ticks; 0 with sampling off
};

// One timed churn round. With `sampling`, a TimeSeriesRecorder scope ticks
// on the churn simulator every simulated millisecond, sampling a counter, a
// gauge and a sketch from a registry populated before the run. The churn
// sim advances ~100ns per link plus the 50ms retry-timer tail, so the round
// sees tick events interleaved throughout: the cost measured is the
// recorder's timer chain and row formatting on top of the identical
// event-loop work.
ChurnRound MeasureRound(int events, bool sampling) {
  Simulator sim;
  MetricsRegistry registry;
  std::optional<TimeSeriesRecorder> recorder;
  if (sampling) {
    registry.counter("churn.links")->Inc(static_cast<uint64_t>(events));
    registry.gauge("churn.lane")->Set(events);
    Histogram* payload = registry.histogram("churn.payload");
    for (int i = 0; i < 16; ++i) {
      payload->Observe(100 + i);
    }
    recorder.emplace(&registry, SimTime::Millis(1));
    const int scope =
        recorder->AddScope("churn", &sim, [&sim] { return sim.PendingEvents() > 0; });
    recorder->SampleCounter(scope, "churn.links");
    recorder->SampleGauge(scope, "churn.lane");
    recorder->SampleSketch(scope, "churn.payload");
    recorder->Start();
  }
  ChurnRound round;
  const double start = CpuSeconds();
  round.checksum = RunChurn(sim, events);
  const double sec = CpuSeconds() - start;
  // ~2 scheduled events (successor + retry timer) per fired chain link.
  round.events_per_sec = 2.0 * events / sec;
  round.ticks = recorder ? recorder->total_ticks() : 0;
  return round;
}

struct ChurnResult {
  double events_per_sec = 0.0;           // best sampling-off round
  double sampling_events_per_sec = 0.0;  // best sampling-on round
  uint64_t sampling_ticks = 0;           // ticks in the best sampling-on round
  uint64_t checksum = 0;
  bool checksums_agree = true;

  double sampling_overhead() const { return 1.0 - sampling_events_per_sec / events_per_sec; }
};

// Best-of `rounds` per side. Round r runs sampling off then on when r is
// even and on then off when r is odd, so drift in host speed during the run
// does not favour either side.
ChurnResult MeasureChurn(int events, int rounds) {
  ChurnResult best;
  bool first = true;
  for (int r = 0; r < rounds; ++r) {
    for (const bool sampling : {r % 2 == 1, r % 2 == 0}) {
      const ChurnRound round = MeasureRound(events, sampling);
      if (first) {
        best.checksum = round.checksum;
        first = false;
      }
      best.checksums_agree = best.checksums_agree && round.checksum == best.checksum;
      if (!sampling) {
        best.events_per_sec = std::max(best.events_per_sec, round.events_per_sec);
      } else if (round.events_per_sec > best.sampling_events_per_sec) {
        best.sampling_events_per_sec = round.events_per_sec;
        best.sampling_ticks = round.ticks;
      }
    }
  }
  return best;
}

// ---- reference figure sweep -----------------------------------------------

double MeasureSweep(int jobs) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<bench::ScalingPane> grid =
      bench::ComputeScalingGrid(Vgg16(), /*include_p3=*/true, jobs);
  double sink = 0.0;
  for (const bench::ScalingPane& pane : grid) {
    for (const bench::ScalingCell& cell : pane.cells) {
      sink += cell.sched;
    }
  }
  const double sec = SecondsSince(start);
  std::printf("  figure sweep (vgg16 grid, jobs=%d): %.3f s (checksum %.1f)\n", jobs, sec, sink);
  return sec;
}

// Reads the previous run's sampling-off churn throughput into *rate. A
// missing file leaves *rate at 0 (no gate, as on a first run); a file that
// exists but does not parse or lacks a positive event_loop.events_per_sec
// returns false.
bool ReadBaseline(const std::string& path, double* rate) {
  *rate = 0.0;
  std::ifstream in(path);
  if (!in) {
    return true;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  obs::JsonValue root;
  if (!obs::ParseJson(buf.str(), &root)) {
    return false;
  }
  const obs::JsonValue* loop = root.Find("event_loop");
  const obs::JsonValue* value = loop != nullptr ? loop->Find("events_per_sec") : nullptr;
  *rate = value != nullptr ? value->NumberOr(0.0) : 0.0;
  return *rate > 0.0;
}

}  // namespace
}  // namespace bsched

int main(int argc, char** argv) {
  using namespace bsched;

  const Flags flags(argc, argv);
  const int jobs = bench::InitBenchJobs(
      argc, argv,
      {"out", "baseline", "churn-events", "rounds", "skip-sweep", "max-regression"});
  const std::string out_path = flags.GetString("out", "BENCH_sim.json");
  const std::string baseline_path = flags.GetString("baseline", out_path);
  const int64_t churn_events = flags.GetInt("churn-events", 300000);
  const int64_t rounds = flags.GetInt("rounds", 3);
  const bool skip_sweep = flags.GetBool("skip-sweep", false);
  const double max_regression = flags.GetDouble("max-regression", 0.10);
  const int host_cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (churn_events <= 0 || churn_events > INT32_MAX || rounds <= 0 || rounds > INT32_MAX) {
    std::fprintf(stderr, "%s: --churn-events and --rounds must be positive integers\n", argv[0]);
    return 2;
  }

  // Read the gate baseline before this run overwrites the file.
  double baseline_rate = 0.0;
  if (!ReadBaseline(baseline_path, &baseline_rate)) {
    std::fprintf(stderr,
                 "%s: baseline %s is not JSON with a positive event_loop.events_per_sec\n",
                 argv[0], baseline_path.c_str());
    return 1;
  }

  std::printf("micro_sim: event-loop and sweep perf baseline (jobs=%d, host_cpus=%d)\n", jobs,
              host_cpus);

  // Shared-container noise routinely exceeds 10% in a single measurement
  // window, so a gate miss is confirmed with an independent re-measure and
  // fails only when it survives both samples.
  const int events = static_cast<int>(churn_events);
  const ChurnResult churn = MeasureChurn(events, static_cast<int>(rounds));
  double gated_rate = churn.events_per_sec;
  double gated_overhead = churn.sampling_overhead();
  bool checksums_agree = churn.checksums_agree;
  const double floor = (1.0 - max_regression) * baseline_rate;
  if (gated_rate < floor || gated_overhead > kMaxSamplingOverhead) {
    const ChurnResult confirm = MeasureChurn(events, static_cast<int>(rounds));
    gated_rate = std::max(gated_rate, confirm.events_per_sec);
    gated_overhead = std::min(gated_overhead, confirm.sampling_overhead());
    checksums_agree = checksums_agree && confirm.checksums_agree &&
                      confirm.checksum == churn.checksum;
  }
  if (!checksums_agree) {
    std::fprintf(stderr, "FATAL: churn checksums diverge between sampling off and on\n");
    return 1;
  }
  std::printf("  event loop: %.2fM events/sec, sampling on %.2fM (%+.1f%% overhead, %llu ticks)\n",
              churn.events_per_sec / 1e6, churn.sampling_events_per_sec / 1e6,
              100.0 * churn.sampling_overhead(),
              static_cast<unsigned long long>(churn.sampling_ticks));

  double serial_sec = 0.0;
  double parallel_sec = 0.0;
  if (!skip_sweep) {
    serial_sec = MeasureSweep(1);
    parallel_sec = MeasureSweep(jobs);
    std::printf("  sweep speedup at jobs=%d: %.2fx\n", jobs,
                parallel_sec > 0 ? serial_sec / parallel_sec : 0.0);
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"micro_sim\",\n");
  std::fprintf(out, "  \"jobs\": %d,\n", jobs);
  std::fprintf(out, "  \"hardware_concurrency\": %d,\n", SweepRunner::DefaultJobs());
  std::fprintf(out, "  \"host_cpus\": %d,\n", host_cpus);
  std::fprintf(out, "  \"event_loop\": {\n");
  std::fprintf(out, "    \"workload\": \"churn\",\n");
  std::fprintf(out, "    \"events\": %d,\n", events);
  std::fprintf(out, "    \"rounds\": %d,\n", static_cast<int>(rounds));
  std::fprintf(out, "    \"events_per_sec\": %.0f,\n", churn.events_per_sec);
  std::fprintf(out, "    \"sampling_events_per_sec\": %.0f,\n", churn.sampling_events_per_sec);
  std::fprintf(out, "    \"sampling_ticks\": %llu,\n",
               static_cast<unsigned long long>(churn.sampling_ticks));
  std::fprintf(out, "    \"sampling_overhead\": %.4f\n", churn.sampling_overhead());
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"figure_sweep\": {\n");
  std::fprintf(out, "    \"model\": \"vgg16\",\n");
  std::fprintf(out, "    \"cells\": 20,\n");
  std::fprintf(out, "    \"measured\": %s,\n", skip_sweep ? "false" : "true");
  std::fprintf(out, "    \"serial_sec\": %.4f,\n", serial_sec);
  std::fprintf(out, "    \"parallel_jobs\": %d,\n", jobs);
  std::fprintf(out, "    \"parallel_sec\": %.4f,\n", parallel_sec);
  std::fprintf(out, "    \"speedup\": %.3f\n",
               parallel_sec > 0 ? serial_sec / parallel_sec : 0.0);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("  wrote %s\n", out_path.c_str());

  // ---- gates (`ctest -L perf` fails on them) ------------------------------
  int status = 0;
  if (gated_overhead > kMaxSamplingOverhead) {
    std::fprintf(stderr, "PERF GATE: sampling overhead %.1f%% exceeds %.0f%%\n",
                 100.0 * gated_overhead, 100.0 * kMaxSamplingOverhead);
    status = 1;
  } else {
    std::printf("  sampling gate: %+.1f%% overhead (bound %.0f%%, ok)\n", 100.0 * gated_overhead,
                100.0 * kMaxSamplingOverhead);
  }
  if (baseline_rate > 0.0) {
    if (gated_rate < floor) {
      std::fprintf(stderr,
                   "PERF GATE: churn throughput regressed >%.0f%% vs %s (%.0f -> %.0f events/sec)\n",
                   100.0 * max_regression, baseline_path.c_str(), baseline_rate, gated_rate);
      status = 1;
    } else {
      std::printf("  perf gate: %.0f events/sec vs baseline %.0f (ok)\n", gated_rate,
                  baseline_rate);
    }
  }
  return status;
}
