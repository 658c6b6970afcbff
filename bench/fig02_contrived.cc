// Regenerates Figure 2: the contrived 3-layer example where a better
// transmission schedule plus tensor partitioning beats default FIFO by ~44%.
// One worker machine and one PS over an ideal 8 Gbps link.
#include <cstdio>

#include "bench/harness.h"
#include "src/model/zoo.h"

using namespace bsched;

int main(int argc, char** argv) {
  bench::InitBenchJobs(argc, argv);
  Setup setup;
  setup.name = "contrived PS";
  setup.framework = Framework::kMxnet;
  setup.arch = ArchType::kPs;
  setup.transport = TransportModel::Ideal();

  JobConfig job = bench::MakeJob(ContrivedFig2Model(), setup, 1, Bandwidth::Gbps(20));
  job.gpus_per_machine = 1;
  job.warmup_iters = 2;
  job.measure_iters = 8;

  job.mode = SchedMode::kVanilla;
  const JobResult fifo = RunTrainingJob(job);

  job.mode = SchedMode::kByteScheduler;
  job.partition_bytes = MiB(1);
  job.credit_bytes = MiB(4);
  const JobResult sched = RunTrainingJob(job);

  std::printf("Figure 2: contrived 3-layer DNN, FIFO vs priority schedule + partitioning\n\n");
  std::printf("  FIFO schedule       : %s per iteration\n", fifo.avg_iter_time.ToString().c_str());
  std::printf("  better schedule     : %s per iteration\n", sched.avg_iter_time.ToString().c_str());
  std::printf("  training speed-up   : %s (paper's contrived example: ~44%%)\n",
              bench::GainPercent(sched.samples_per_sec, fifo.samples_per_sec).c_str());
  return 0;
}
