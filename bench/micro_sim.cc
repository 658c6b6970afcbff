// Perf baseline harness: measures the discrete-event loop on a synthetic
// churn workload (schedule / cancel / nested reschedule, the pattern the
// scheduler's retry timers and transport completions produce), then writes
// BENCH_sim.json so later builds can compare against this baseline. Figure
// wall-clock is perfbench's paper_eval workload, not this tool's.
//
// The event loop is measured twice in one process, interleaved within each
// round: with sampling off (a bare Simulator) and with sampling on (a
// TimeSeriesRecorder ticking on a second Simulator every simulated
// millisecond), the two advanced in alternating blocks of events, each block
// followed by one of a fixed calibration loop that reads the host's speed.
// Both churn sides must agree on the workload checksum, or the run exits 1.
// Two gates then apply, each confirmed by an independent re-measure before
// it fails the run (exit 1):
//  - sampling overhead (1 - off CPU time / on CPU time) above
//    kMaxSamplingOverhead;
//  - when the output file from a previous run exists (or --baseline points
//    at one), sampling-off churn events per calibration unit more than
//    --max-regression below it — the cross-build `ctest -L perf` regression
//    gate. The host's raw rate jumps between speed modes from one process to
//    the next, and the calibration rate moves with it. A baseline file that
//    exists but does not parse, or lacks a positive
//    event_loop.events_per_sec, exits 1 instead of skipping the gate; one
//    without event_loop.events_per_calibration_unit (an older build's)
//    skips it for this run.
//
// Flags: --out PATH        output JSON path (default: BENCH_sim.json)
//        --baseline PATH   prior BENCH_sim.json to gate against (default: --out)
//        --churn-events N  events per churn round, > 0 (default: 300000)
//        --rounds N        interleaved churn rounds, > 0 (default: 3)
//        --max-regression F  allowed churn slowdown vs baseline
//                            (default 0.10 — the >10% regression gate)
// A non-positive --churn-events or --rounds exits 2 before anything runs.
// The regression default assumes reasonably quiet hardware; CI on
// oversubscribed containers passes a wider value (see bench/CMakeLists.txt).
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "src/common/flags.h"
#include "src/obs/json_lite.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

// Largest allowed sampling overhead, 1 - (sampling-off CPU time /
// sampling-on CPU time). Both sides run interleaved in blocks of events, so
// host noise hits them alike; see EXPERIMENTS.md §Benchmark methodology for
// the measured spread behind this bound.
constexpr double kMaxSamplingOverhead = 0.15;

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
// Each Churn owns its Simulator, which the caller steps in blocks of events,
// so two of them can run interleaved on one thread.
struct Churn {
  // With `sampling`, a TimeSeriesRecorder scope ticks on the churn simulator
  // every simulated millisecond, sampling a counter, a gauge and a sketch
  // from a registry populated before the run. The churn sim advances ~100ns
  // per link plus the 50ms retry-timer tail, so tick events interleave
  // throughout: the cost measured is the recorder's timer chain and row
  // formatting on top of the identical event-loop work.
  Churn(int events, bool sampling) : remaining(events) {
    if (sampling) {
      registry.counter("churn.links")->Inc(static_cast<uint64_t>(events));
      registry.gauge("churn.lane")->Set(events);
      Histogram* payload = registry.histogram("churn.payload");
      for (int i = 0; i < 16; ++i) {
        payload->Observe(100 + i);
      }
      recorder.emplace(&registry, SimTime::Millis(1));
      const int scope =
          recorder->AddScope("churn", &sim, [this] { return sim.PendingEvents() > 0; });
      recorder->SampleCounter(scope, "churn.links");
      recorder->SampleGauge(scope, "churn.lane");
      recorder->SampleSketch(scope, "churn.payload");
      recorder->Start();
    }
    chain = [this](int lane) {
      checksum += static_cast<uint64_t>(lane);
      if (--remaining <= 0) {
        return;
      }
      retry_timer.Cancel();
      // The successor captures the lane, a payload, and the chain itself.
      const int64_t payload = remaining;
      sim.Schedule(SimTime::Nanos(100 + lane), [this, lane, payload] {
        chain((lane + static_cast<int>(payload)) % 7);
      });
      retry_timer = sim.Schedule(SimTime::Millis(50), [this] { checksum += 1; });
    };
    chain(0);
  }
  // The callbacks hold `this`.
  Churn(const Churn&) = delete;
  Churn& operator=(const Churn&) = delete;

  Simulator sim;
  MetricsRegistry registry;
  std::optional<TimeSeriesRecorder> recorder;
  std::function<void(int)> chain;
  EventHandle retry_timer;
  uint64_t checksum = 0;
  int remaining;
};

// Events each side fires before the other side's turn: ~0.3 ms of CPU, so
// both sides sample the host at the same speed even when it shifts mid-round.
constexpr int kBlockEvents = 8192;

// ---- calibration ----------------------------------------------------------

// The host-speed yardstick: each unit pops the earliest key of a fixed
// binary min-heap and pushes a later one — the queue work of an event loop,
// with no events, callbacks or allocation — so its rate moves with the
// host's speed mode and not with this repository's code.
struct Calibration {
  static constexpr int kBlockUnits = 4096;  // one block: ~0.5 ms of CPU

  Calibration() {
    for (uint64_t& key : heap) {
      key = Next();
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
  }

  void RunBlock() {
    for (int i = 0; i < kBlockUnits; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.back() += 1 + Next();
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
  }

  // xorshift64, reduced to 20 bits.
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % (1 << 20);
  }

  std::array<uint64_t, 1 << 14> heap;
  uint64_t state = 0x9E3779B97F4A7C15ull;
};

// Written once per measurement, so the compiler cannot drop the calibration.
volatile uint64_t calibration_sink = 0;

struct ChurnResult {
  double events_per_sec = 0.0;           // best sampling-off round
  double sampling_events_per_sec = 0.0;  // best sampling-on round
  uint64_t sampling_ticks = 0;           // ticks per sampling-on round
  uint64_t checksum = 0;
  bool checksums_agree = true;
  // CPU time each side spent over all rounds, on identical work.
  double off_cpu_sec = 0.0;
  double on_cpu_sec = 0.0;
  double calibration_units_per_sec = 0.0;
  // Sampling-off churn events per calibration unit over all rounds: the
  // churn rate in host-speed units, which the cross-build gate compares.
  double events_per_calibration_unit = 0.0;

  double sampling_overhead() const { return 1.0 - off_cpu_sec / on_cpu_sec; }
};

// `rounds` rounds, each running a sampling-off and a sampling-on churn side
// and the calibration side by side: the two simulators advance in
// alternating blocks of kBlockEvents, each followed by a calibration block,
// and each side's CPU time is summed over its own blocks. Which churn side
// goes first alternates by round. The rates are best-of-rounds per side; the
// overhead and the calibration ratio compare CPU totals, which were spent on
// the same host windows.
ChurnResult MeasureChurn(int events, int rounds) {
  ChurnResult result;
  Calibration calibration;
  double calibration_sec = 0.0;
  double calibration_units = 0.0;
  for (int r = 0; r < rounds; ++r) {
    Churn off(events, /*sampling=*/false);
    Churn on(events, /*sampling=*/true);
    Simulator* sims[2] = {&off.sim, &on.sim};
    double sec[2] = {0.0, 0.0};  // CPU seconds of off, on
    while (!off.sim.Empty() || !on.sim.Empty()) {
      for (int k = 0; k < 2; ++k) {
        const int i = (k + r) % 2;
        double start = CpuSeconds();
        for (int n = 0; n < kBlockEvents && sims[i]->Step(); ++n) {
        }
        sec[i] += CpuSeconds() - start;
        start = CpuSeconds();
        calibration.RunBlock();
        calibration_sec += CpuSeconds() - start;
        calibration_units += Calibration::kBlockUnits;
      }
    }
    if (r == 0) {
      result.checksum = off.checksum;
    }
    result.checksums_agree = result.checksums_agree && off.checksum == result.checksum &&
                             on.checksum == result.checksum;
    // ~2 scheduled events (successor + retry timer) per fired chain link.
    result.events_per_sec = std::max(result.events_per_sec, 2.0 * events / sec[0]);
    result.sampling_events_per_sec =
        std::max(result.sampling_events_per_sec, 2.0 * events / sec[1]);
    result.sampling_ticks = on.recorder->total_ticks();
    result.off_cpu_sec += sec[0];
    result.on_cpu_sec += sec[1];
  }
  calibration_sink = calibration.heap.front();
  result.calibration_units_per_sec = calibration_units / calibration_sec;
  result.events_per_calibration_unit =
      2.0 * events * rounds / result.off_cpu_sec / result.calibration_units_per_sec;
  return result;
}

// Reads the previous run's sampling-off churn events per calibration unit
// into *ratio. A missing file leaves *ratio at 0 (no gate, as on a first
// run), and so does a file written before the ratio was recorded; a file
// that exists but does not parse or lacks a positive
// event_loop.events_per_sec returns false.
bool ReadBaseline(const std::string& path, double* ratio) {
  *ratio = 0.0;
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
  const auto field = [loop](const char* name) {
    const obs::JsonValue* value = loop != nullptr ? loop->Find(name) : nullptr;
    return value != nullptr ? value->NumberOr(0.0) : 0.0;
  };
  *ratio = field("events_per_calibration_unit");
  return field("events_per_sec") > 0.0;
}

}  // namespace
}  // namespace bsched

int main(int argc, char** argv) {
  using namespace bsched;

  const Flags flags(argc, argv);
  if (!flags.CheckNames(argv[0], {"out", "baseline", "churn-events", "rounds", "max-regression"})) {
    return 2;
  }
  const std::string out_path = flags.GetString("out", "BENCH_sim.json");
  const std::string baseline_path = flags.GetString("baseline", out_path);
  const int64_t churn_events = flags.GetInt("churn-events", 300000);
  const int64_t rounds = flags.GetInt("rounds", 3);
  const double max_regression = flags.GetDouble("max-regression", 0.10);
  const int host_cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (churn_events <= 0 || churn_events > INT32_MAX || rounds <= 0 || rounds > INT32_MAX) {
    std::fprintf(stderr, "%s: --churn-events and --rounds must be positive integers\n", argv[0]);
    return 2;
  }

  // Read the gate baseline before this run overwrites the file.
  double baseline_ratio = 0.0;
  if (!ReadBaseline(baseline_path, &baseline_ratio)) {
    std::fprintf(stderr,
                 "%s: baseline %s is not JSON with a positive event_loop.events_per_sec\n",
                 argv[0], baseline_path.c_str());
    return 1;
  }

  std::printf("micro_sim: event-loop perf baseline (host_cpus=%d)\n", host_cpus);

  // Shared-container noise routinely exceeds 10% in a single measurement
  // window, so a gate miss is confirmed with an independent re-measure and
  // fails only when it survives both samples.
  const int events = static_cast<int>(churn_events);
  const ChurnResult churn = MeasureChurn(events, static_cast<int>(rounds));
  double gated_ratio = churn.events_per_calibration_unit;
  double gated_overhead = churn.sampling_overhead();
  bool checksums_agree = churn.checksums_agree;
  const double floor = (1.0 - max_regression) * baseline_ratio;
  if (gated_ratio < floor || gated_overhead > kMaxSamplingOverhead) {
    const ChurnResult confirm = MeasureChurn(events, static_cast<int>(rounds));
    gated_ratio = std::max(gated_ratio, confirm.events_per_calibration_unit);
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
  std::printf("  calibration: %.2fM units/sec, %.4f churn events per unit\n",
              churn.calibration_units_per_sec / 1e6, churn.events_per_calibration_unit);

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"micro_sim\",\n");
  std::fprintf(out, "  \"host_cpus\": %d,\n", host_cpus);
  std::fprintf(out, "  \"event_loop\": {\n");
  std::fprintf(out, "    \"workload\": \"churn\",\n");
  std::fprintf(out, "    \"events\": %d,\n", events);
  std::fprintf(out, "    \"rounds\": %d,\n", static_cast<int>(rounds));
  std::fprintf(out, "    \"events_per_sec\": %.0f,\n", churn.events_per_sec);
  std::fprintf(out, "    \"sampling_events_per_sec\": %.0f,\n", churn.sampling_events_per_sec);
  std::fprintf(out, "    \"sampling_ticks\": %llu,\n",
               static_cast<unsigned long long>(churn.sampling_ticks));
  std::fprintf(out, "    \"sampling_overhead\": %.4f,\n", churn.sampling_overhead());
  std::fprintf(out, "    \"calibration_units_per_sec\": %.0f,\n", churn.calibration_units_per_sec);
  std::fprintf(out, "    \"events_per_calibration_unit\": %.6f\n",
               churn.events_per_calibration_unit);
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
  if (baseline_ratio > 0.0) {
    if (gated_ratio < floor) {
      std::fprintf(stderr,
                   "PERF GATE: churn throughput regressed >%.0f%% vs %s (%.4f -> %.4f events per "
                   "calibration unit)\n",
                   100.0 * max_regression, baseline_path.c_str(), baseline_ratio, gated_ratio);
      status = 1;
    } else {
      std::printf("  perf gate: %.4f events per calibration unit vs baseline %.4f (ok)\n",
                  gated_ratio, baseline_ratio);
    }
  }
  return status;
}
