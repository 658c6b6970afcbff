// Ablations of ByteScheduler's design choices (DESIGN.md experiment index):
//   1. credit-based preemption vs stop-and-wait at the same partition size
//   2. tensor partitioning on/off (priority kept)
//   3. priority scheduling on/off (partitioning kept)
//   4. crossing the global barrier on/off (TensorFlow PS)
//   5. PS load balance: vanilla vs partitioned assignment (Transformer)
#include <cstdio>
#include <iostream>

#include "bench/harness.h"
#include "src/common/table.h"
#include "src/model/zoo.h"
#include "src/tuning/auto_tuner.h"

using namespace bsched;

namespace {

double Run(JobConfig job) { return bench::RunSpeed(job); }

}  // namespace

int main(int argc, char** argv) {
  bench::InitBenchJobs(argc, argv);
  std::printf("Ablations: VGG16 unless noted, 32 GPUs, 100 Gbps\n\n");

  {
    JobConfig base =
        bench::WithMode(bench::MakeJob(Vgg16(), Setup::MxnetPsRdma(), 4, Bandwidth::Gbps(100)),
                        SchedMode::kByteScheduler);
    Table t({"variant", "speed (img/s)", "vs full"});
    const double full = Run(base);

    JobConfig stop_wait = base;
    stop_wait.credit_bytes = stop_wait.partition_bytes;  // one partition in flight
    const double sw = Run(stop_wait);

    JobConfig no_partition = base;
    no_partition.partition_bytes = SchedulerConfig::kNoPartition;
    const double np = Run(no_partition);

    JobConfig fifo = base;
    SchedulerConfig cfg = SchedulerConfig::ByteScheduler(base.partition_bytes, base.credit_bytes);
    cfg.policy = SchedulerConfig::Policy::kFifo;
    fifo.sched_override = cfg;
    const double ff = Run(fifo);

    t.AddRow({"full ByteScheduler", Table::Num(full, 0), "+0.0%"});
    t.AddRow({"stop-and-wait (credit = partition)", Table::Num(sw, 0),
              bench::GainPercent(sw, full)});
    t.AddRow({"no partitioning", Table::Num(np, 0), bench::GainPercent(np, full)});
    t.AddRow({"FIFO order (no priority)", Table::Num(ff, 0), bench::GainPercent(ff, full)});
    std::printf("-- scheduler components (MXNet PS RDMA) --\n");
    t.RenderAscii(std::cout);
  }

  {
    JobConfig base = bench::WithMode(
        bench::MakeJob(Vgg16(), Setup::TensorFlowPsTcp(), 4, Bandwidth::Gbps(100)),
        SchedMode::kByteScheduler);
    const double crossing = Run(base);
    JobConfig no_cross = base;
    no_cross.disable_barrier_crossing = true;
    const double stalled = Run(no_cross);
    const double vanilla = Run(bench::WithMode(base, SchedMode::kVanilla));
    Table t({"variant", "speed (img/s)", "vs vanilla"});
    t.AddRow({"vanilla TensorFlow", Table::Num(vanilla, 0), "+0.0%"});
    t.AddRow({"scheduled, barrier NOT crossed", Table::Num(stalled, 0),
              bench::GainPercent(stalled, vanilla)});
    t.AddRow({"scheduled, barrier crossed (sec. 3.4)", Table::Num(crossing, 0),
              bench::GainPercent(crossing, vanilla)});
    std::printf("\n-- crossing the global barrier (TensorFlow PS TCP) --\n");
    t.RenderAscii(std::cout);
  }

  {
    JobConfig base = bench::MakeJob(Transformer(), Setup::MxnetPsRdma(), 4, Bandwidth::Gbps(100));
    const JobResult vanilla = RunTrainingJob(bench::WithMode(base, SchedMode::kVanilla));
    const JobResult sched =
        RunTrainingJob(bench::WithMode(base, SchedMode::kByteScheduler));
    Table t({"variant", "speed (tokens/s)", "shard load imbalance"});
    t.AddRow({"vanilla (whole embedding on one shard)", Table::Num(vanilla.samples_per_sec, 0),
              Table::Num(vanilla.shard_load_imbalance, 2) + "x"});
    t.AddRow({"bytescheduler (partitions striped)", Table::Num(sched.samples_per_sec, 0),
              Table::Num(sched.shard_load_imbalance, 2) + "x"});
    std::printf("\n-- PS load balancing (Transformer, MXNet PS RDMA) --\n");
    t.RenderAscii(std::cout);
  }

  {
    // §7 extension: per-layer partition sizes refined greedily around the
    // tuned uniform configuration.
    JobConfig base =
        bench::WithMode(bench::MakeJob(Vgg16(), Setup::MxnetPsRdma(), 4, Bandwidth::Gbps(100)),
                        SchedMode::kByteScheduler);
    AutoTunerOptions opt;
    opt.noise_frac = 0.0;
    AutoTuner tuner(base, opt);
    const TunedParams uniform{base.partition_bytes, base.credit_bytes};
    const double uniform_speed =
        tuner.EvaluateObjective(uniform.partition_bytes, uniform.credit_bytes);
    const AutoTuner::PerLayerResult refined = tuner.TunePerLayer(uniform, 2);
    Table t({"variant", "speed (img/s)", "search trials"});
    t.AddRow({"uniform tuned partition", Table::Num(uniform_speed, 0), "1"});
    t.AddRow({"per-layer refined (sec. 7 extension)", Table::Num(refined.speed, 0),
              std::to_string(refined.extra_trials)});
    std::printf("\n-- dynamic per-layer partition sizes (VGG16, MXNet PS RDMA) --\n");
    t.RenderAscii(std::cout);
    std::printf("\nPer-layer refinement wins a little extra speed at a much higher search\n"
                "cost, as the paper's sec. 7 anticipates.\n");
  }
  return 0;
}
