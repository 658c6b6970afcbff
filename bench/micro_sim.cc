// Perf baseline harness: measures the discrete-event loop on a synthetic
// churn workload (schedule / cancel / nested reschedule, the pattern the
// scheduler's retry timers and transport completions produce) and the
// wall-clock of one reference figure sweep at --jobs 1 vs --jobs N, then
// writes BENCH_sim.json so future PRs can compare against this baseline.
//
// The event-loop measurement runs the same workload on two engines, which
// must agree on a workload checksum:
//  - the Simulator (pooled slots and EventFn over a binary heap),
//  - LegacySimulator, an in-tree copy of the pre-pooling event loop
//    (per-event std::function + shared_ptr<bool> token on a
//    std::priority_queue), so speedups are measured, not asserted.
//
// When the output file from a previous run exists (or --baseline points at
// one), the run fails if churn throughput regressed more than 10%
// against it — this is the `ctest -L perf` regression gate.
//
// Flags: --jobs N          parallel sweep workers (default: hardware concurrency)
//        --out PATH        output JSON path (default: BENCH_sim.json)
//        --baseline PATH   prior BENCH_sim.json to gate against (default: --out)
//        --churn-events N  events per churn round (default: 300000)
//        --rounds N        churn rounds, best-of (default: 3)
//        --skip-sweep      measure the event loop only (quick smoke mode)
//        --max-regression F  allowed churn slowdown vs baseline
//                            (default 0.10 — the >10% regression gate)
// The gate defaults assume reasonably quiet hardware; CI on oversubscribed
// single-core containers passes wider values (see bench/CMakeLists.txt).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/churn.h"
#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/exec/sweep_runner.h"
#include "src/model/zoo.h"
#include "src/obs/json_lite.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

using bench::ChurnResult;
using bench::LegacySimulator;
using bench::MeasureChurn;
using bench::SecondsSince;

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

// Reads the previous run's churn throughput; 0 when absent/unreadable.
double BaselineEventsPerSec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return 0.0;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  obs::JsonValue root;
  if (!obs::ParseJson(buf.str(), &root)) {
    return 0.0;
  }
  const obs::JsonValue* loop = root.Find("event_loop");
  const obs::JsonValue* rate = loop != nullptr ? loop->Find("events_per_sec") : nullptr;
  return rate != nullptr ? rate->NumberOr(0.0) : 0.0;
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
  const int churn_events = static_cast<int>(flags.GetInt("churn-events", 300000));
  const int rounds = static_cast<int>(flags.GetInt("rounds", 3));
  const bool skip_sweep = flags.GetBool("skip-sweep", false);
  const double max_regression = flags.GetDouble("max-regression", 0.10);
  const int host_cpus = static_cast<int>(std::thread::hardware_concurrency());

  // Read the gate baseline before this run overwrites the file.
  const double baseline_rate = BaselineEventsPerSec(baseline_path);

  std::printf("micro_sim: event-loop and sweep perf baseline (jobs=%d, host_cpus=%d)\n", jobs,
              host_cpus);

  const ChurnResult sim = MeasureChurn<Simulator, EventHandle>(churn_events, rounds);
  const ChurnResult legacy =
      MeasureChurn<LegacySimulator, LegacySimulator::Handle>(churn_events, rounds);
  if (sim.checksum != legacy.checksum) {
    std::fprintf(stderr, "FATAL: churn checksums diverge (simulator %llu, legacy %llu)\n",
                 static_cast<unsigned long long>(sim.checksum),
                 static_cast<unsigned long long>(legacy.checksum));
    return 1;
  }
  const double speedup_vs_legacy = sim.events_per_sec / legacy.events_per_sec;
  std::printf("  event loop: %.2fM events/sec, legacy %.2fM (%.2fx)\n", sim.events_per_sec / 1e6,
              legacy.events_per_sec / 1e6, speedup_vs_legacy);

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
  std::fprintf(out, "    \"events\": %d,\n", churn_events);
  std::fprintf(out, "    \"rounds\": %d,\n", rounds);
  std::fprintf(out, "    \"events_per_sec\": %.0f,\n", sim.events_per_sec);
  std::fprintf(out, "    \"legacy_events_per_sec\": %.0f,\n", legacy.events_per_sec);
  std::fprintf(out, "    \"speedup_vs_legacy\": %.3f\n", speedup_vs_legacy);
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

  // ---- regression gate (`ctest -L perf` fails on it) ----------------------
  // Shared-container noise routinely exceeds 10% in a single measurement
  // window, so the gate confirms a miss with an independent re-measure and
  // fails only when the regression survives both samples.
  if (baseline_rate > 0.0) {
    const double floor = (1.0 - max_regression) * baseline_rate;
    double gated_rate = sim.events_per_sec;
    if (gated_rate < floor) {
      const ChurnResult confirm = MeasureChurn<Simulator, EventHandle>(churn_events, rounds);
      gated_rate = std::max(gated_rate, confirm.events_per_sec);
    }
    if (gated_rate < floor) {
      std::fprintf(stderr,
                   "PERF GATE: churn throughput regressed >%.0f%% vs %s (%.0f -> %.0f events/sec)\n",
                   100.0 * max_regression, baseline_path.c_str(), baseline_rate, gated_rate);
      return 1;
    }
    std::printf("  perf gate: %.0f events/sec vs baseline %.0f (ok)\n", gated_rate,
                baseline_rate);
  }
  return 0;
}
