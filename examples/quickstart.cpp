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
//                        on/off cross traffic, a derated receive direction)
//                        and print its speed against the calm fabric.
//                        Deterministic: the same seed always produces the
//                        same run.
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
#include <vector>

#include "src/common/flags.h"
#include "src/exec/sweep_runner.h"
#include "src/model/zoo.h"
#include "src/runtime/cluster.h"
#include "src/runtime/obs_artifacts.h"
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
  // --chaos and --volatility are either bare (seed 1) or take a seed.
  const auto seed_of = [&flags](const std::string& name) {
    return flags.GetString(name, "") == "true" ? 1 : flags.GetSeed(name, 1);
  };
  const bool chaos = flags.Has("chaos");
  const uint64_t chaos_seed = seed_of("chaos");
  const bool volatility = flags.Has("volatility");
  const uint64_t volatility_seed = seed_of("volatility");
  // The obs sinks observe one job: the ByteScheduler job, or with --chaos
  // the chaos rerun, so its trace shows the retry/retransmit activity.
  ObsArtifacts artifacts(ParseObsFlags(flags));

  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsRdma();
  job.num_machines = 4;  // 32 GPUs
  job.bandwidth = Bandwidth::Gbps(100);  // mode: vanilla, the default

  // Vanilla MXNet (FIFO transmission of whole tensors) and ByteScheduler
  // (priority scheduling + tensor partitioning + credits) are independent
  // simulations: evaluate them concurrently.
  const TunedParams tuned =
      DefaultTunedParams(job.model, job.setup.arch, job.setup.transport, job.bandwidth);
  // The fault-free ByteScheduler job; the --chaos and --volatility reruns
  // each start from a copy of it, so neither inherits the other's fabric.
  JobConfig bytescheduler = job;
  bytescheduler.mode = SchedMode::kByteScheduler;
  bytescheduler.partition_bytes = tuned.partition_bytes;
  bytescheduler.credit_bytes = tuned.credit_bytes;
  const std::vector<JobResult> results = ParallelFor(2, [&](size_t i) {
    JobConfig run = i == 0 ? job : bytescheduler;
    if (i == 1 && !chaos) {
      artifacts.Attach(&run);  // read only after ParallelFor joins
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
    JobConfig observed = bytescheduler;
    observed.chaos = FaultPlanConfig::Chaos(chaos_seed);
    artifacts.Attach(&observed);
    const JobResult chaotic = RunTrainingJob(observed);
    std::printf("  chaos (seed %llu): %8.1f images/sec (%+.1f%% vs fault-free)\n",
                static_cast<unsigned long long>(chaos_seed), chaotic.samples_per_sec,
                100.0 * (chaotic.samples_per_sec / scheduled.samples_per_sec - 1.0));
    std::printf("    %s\n", chaotic.fault_stats.DebugString().c_str());
  }

  if (volatility) {
    JobConfig stormy_job = bytescheduler;
    NetDynamicsConfig dyn;
    dyn.seed = volatility_seed;
    dyn.volatility_amplitude = 0.7;
    dyn.cross_flows = 2;
    dyn.cross_load = 0.5;
    dyn.down_scale = 0.8;
    stormy_job.dynamics = dyn;
    const JobResult stormy = RunTrainingJob(stormy_job);
    std::printf("  volatility (seed %llu): %8.1f images/sec (%+.1f%% vs calm fabric)\n",
                static_cast<unsigned long long>(volatility_seed), stormy.samples_per_sec,
                100.0 * (stormy.samples_per_sec / scheduled.samples_per_sec - 1.0));
  }

  return artifacts.Write() ? 0 : 1;
}
