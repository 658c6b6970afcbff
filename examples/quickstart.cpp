// Quickstart: run one distributed training job with the vanilla framework
// and once more with ByteScheduler, and print the speedup — the library's
// headline capability in ~40 lines.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
//
// Flags: --jobs N        worker threads for the two independent simulations
//                        (default: hardware concurrency; results are
//                        bit-identical at any value)
//        --chaos[=seed]  rerun the ByteScheduler job under deterministic
//                        fault injection (message drops, latency spikes,
//                        stragglers, slow shards) and print the recovery
//                        statistics.
//        --volatility[=seed]  rerun the ByteScheduler job on a volatile
//                        network fabric (seeded random-walk link drift,
//                        on/off cross traffic, loss-driven AIMD pacing) and
//                        print the rate-control activity. Deterministic:
//                        the same seed always produces the same run.
//        --trace[=path]  write a Chrome/Perfetto trace of the ByteScheduler
//                        job (default path trace.json)
//        --metrics[=path] write its metrics snapshot (default metrics.json)
//        --timeseries[=path] sample per-worker metrics on a simulated-time
//                        cadence and write the series CSV (default
//                        timeseries.csv)
//        --sample-every=US  the sampling cadence in simulated microseconds
//                        (default 100; implies --timeseries when given alone)
//        --obs           shorthand for --trace --metrics --timeseries
//                        Inspect the artifacts with: ./build/bench/obs_report
#include <cstdio>
#include <fstream>
#include <vector>

#include "src/common/flags.h"
#include "src/common/trace.h"
#include "src/exec/sweep_runner.h"
#include "src/model/zoo.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"

int main(int argc, char** argv) {
  using namespace bsched;

  const Flags flags(argc, argv);
  if (!flags.CheckNames(argv[0], {"jobs", "chaos", "volatility", "trace", "metrics",
                                  "timeseries", "sample-every", "obs"})) {
    return 2;
  }
  if (!SetDefaultJobsFromFlags(flags, argv[0])) {
    return 2;
  }
  const bool chaos = flags.Has("chaos");
  const uint64_t chaos_seed =
      flags.GetBool("chaos", false) ? 1 : static_cast<uint64_t>(flags.GetInt("chaos", 1));
  const bool volatility = flags.Has("volatility");
  const uint64_t volatility_seed =
      flags.GetBool("volatility", false)
          ? 1
          : static_cast<uint64_t>(flags.GetInt("volatility", 1));
  const ObsFlags obs = ParseObsFlags(flags);
  TraceRecorder trace;
  MetricsRegistry metrics;
  const bool want_timeseries = !obs.timeseries_path.empty();
  TimeSeriesRecorder timeseries(
      &metrics, SimTime::Micros(obs.sample_every_us > 0 ? obs.sample_every_us : 100));

  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsRdma();
  job.num_machines = 4;  // 32 GPUs
  job.bandwidth = Bandwidth::Gbps(100);

  // Vanilla MXNet (FIFO transmission of whole tensors) and ByteScheduler
  // (priority scheduling + tensor partitioning + credits) are independent
  // simulations: evaluate them concurrently.
  const TunedParams tuned =
      DefaultTunedParams(job.model, job.setup.arch, job.setup.transport, job.bandwidth);
  const std::vector<JobResult> results = ParallelFor(2, [&](size_t i) {
    JobConfig run = job;
    if (i == 0) {
      run.mode = SchedMode::kVanilla;
    } else {
      run.mode = SchedMode::kByteScheduler;
      run.partition_bytes = tuned.partition_bytes;
      run.credit_bytes = tuned.credit_bytes;
      if (obs.enabled() && !chaos) {
        // Observe the ByteScheduler job (the interesting schedule). The
        // sinks are attached to exactly one job — a TraceRecorder is not
        // thread-safe — and read only after ParallelFor joins. With --chaos
        // the sinks go to the chaos rerun below instead, so its trace shows
        // the retry/retransmit activity.
        run.trace = obs.trace_path.empty() ? nullptr : &trace;
        // The time-series recorder samples metric handles, so it needs the
        // registry even when no snapshot file was requested.
        run.metrics =
            obs.metrics_path.empty() && !want_timeseries ? nullptr : &metrics;
        run.timeseries = want_timeseries ? &timeseries : nullptr;
      }
    }
    return RunTrainingJob(run);
  });
  const JobResult& baseline = results[0];
  const JobResult& scheduled = results[1];

  const double linear = LinearScalingSpeed(job.model, job.total_gpus());
  std::printf("VGG16 on %s, %d GPUs, %.0f Gbps\n", job.setup.name.c_str(), job.total_gpus(),
              job.bandwidth.ToGbps());
  std::printf("  baseline       : %8.1f images/sec (shard imbalance %.2fx)\n",
              baseline.samples_per_sec, baseline.shard_load_imbalance);
  std::printf("  bytescheduler  : %8.1f images/sec (partition %s, credit %s)\n",
              scheduled.samples_per_sec, FormatBytes(tuned.partition_bytes).c_str(),
              FormatBytes(tuned.credit_bytes).c_str());
  std::printf("  linear scaling : %8.1f images/sec\n", linear);
  std::printf("  speedup        : %+.1f%%\n",
              100.0 * (scheduled.samples_per_sec / baseline.samples_per_sec - 1.0));

  if (chaos) {
    job.mode = SchedMode::kByteScheduler;
    job.partition_bytes = tuned.partition_bytes;
    job.credit_bytes = tuned.credit_bytes;
    job.chaos = FaultPlanConfig::Chaos(chaos_seed);
    if (obs.enabled()) {
      job.trace = obs.trace_path.empty() ? nullptr : &trace;
      job.metrics =
          obs.metrics_path.empty() && !want_timeseries ? nullptr : &metrics;
      job.timeseries = want_timeseries ? &timeseries : nullptr;
    }
    const JobResult chaotic = RunTrainingJob(job);
    std::printf("  chaos (seed %llu): %8.1f images/sec (%+.1f%% vs fault-free)\n",
                static_cast<unsigned long long>(chaos_seed), chaotic.samples_per_sec,
                100.0 * (chaotic.samples_per_sec / scheduled.samples_per_sec - 1.0));
    std::printf("    %s\n", chaotic.fault_stats.DebugString().c_str());
  }

  if (volatility) {
    job.mode = SchedMode::kByteScheduler;
    job.partition_bytes = tuned.partition_bytes;
    job.credit_bytes = tuned.credit_bytes;
    // The obs sinks (if any) already observed the calm ByteScheduler job or
    // the chaos rerun above; each recorder attaches to exactly one run.
    job.trace = nullptr;
    job.metrics = nullptr;
    job.timeseries = nullptr;
    NetDynamicsConfig dyn;
    dyn.seed = volatility_seed;
    dyn.volatility_amplitude = 0.7;
    dyn.cross_flows = 2;
    dyn.cross_load = 0.5;
    dyn.down_scale = 0.8;
    dyn.aimd.enable = true;
    job.dynamics = dyn;
    const JobResult stormy = RunTrainingJob(job);
    std::printf("  volatility (seed %llu): %8.1f images/sec (%+.1f%% vs calm fabric)\n",
                static_cast<unsigned long long>(volatility_seed), stormy.samples_per_sec,
                100.0 * (stormy.samples_per_sec / scheduled.samples_per_sec - 1.0));
    std::printf("    aimd: %llu decreases, %llu increases; %llu in-flight repaces\n",
                static_cast<unsigned long long>(stormy.rate_ctrl_decreases),
                static_cast<unsigned long long>(stormy.rate_ctrl_increases),
                static_cast<unsigned long long>(stormy.link_repaces));
  }

  if (!obs.trace_path.empty()) {
    std::ofstream out(obs.trace_path);
    trace.WriteChromeTrace(out);
    std::printf("  trace          : %s (%zu events; open in ui.perfetto.dev)\n",
                obs.trace_path.c_str(), trace.num_events());
  }
  if (!obs.metrics_path.empty()) {
    std::ofstream out(obs.metrics_path);
    metrics.Snapshot().WriteJson(out);
    std::printf("  metrics        : %s\n", obs.metrics_path.c_str());
  }
  if (want_timeseries) {
    std::ofstream out(obs.timeseries_path);
    timeseries.WriteCsv(out);
    std::printf("  timeseries     : %s (%llu ticks @ %lldus)\n", obs.timeseries_path.c_str(),
                static_cast<unsigned long long>(timeseries.total_ticks()),
                static_cast<long long>(obs.sample_every_us));
  }
  if (obs.enabled()) {
    std::printf("  inspect with   : obs_report --trace=%s --metrics=%s --timeseries=%s\n",
                obs.trace_path.empty() ? "<none>" : obs.trace_path.c_str(),
                obs.metrics_path.empty() ? "<none>" : obs.metrics_path.c_str(),
                obs.timeseries_path.empty() ? "<none>" : obs.timeseries_path.c_str());
  }
  return 0;
}
