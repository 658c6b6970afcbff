// Regenerates Figure 4: VGG16 on MXNet PS TCP with FIFO communication
// scheduling, (a) training speed vs partition size and (b) vs credit size,
// each at 1 Gbps and 10 Gbps. Shows the partition-overhead/preemption
// trade-off that motivates auto-tuning (§2.3).
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/harness.h"
#include "src/common/table.h"
#include "src/model/zoo.h"

using namespace bsched;

namespace {

double SpeedWith(Bandwidth bw, Bytes partition, Bytes credit) {
  JobConfig job = bench::MakeJob(Vgg16(), Setup::MxnetPsTcp(), 4, bw);
  job.mode = SchedMode::kByteScheduler;  // scheduler plumbing, FIFO policy
  SchedulerConfig cfg;
  cfg.policy = SchedulerConfig::Policy::kFifo;
  cfg.partition_bytes = partition;
  cfg.credit_bytes = credit;
  job.sched_override = cfg;
  job.measure_iters = 3;
  return bench::RunSpeed(job);
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitObsBenchJobs(argc, argv);
  const std::vector<Bytes> sizes = {KiB(80),  KiB(160), KiB(240), KiB(320),
                                    KiB(400), KiB(480), KiB(560), KiB(640), KiB(750)};
  std::printf("Figure 4: VGG16, MXNet PS TCP, FIFO scheduling, 32 GPUs\n\n");

  std::printf("(a) speed vs partition size (credit = 8x partition)\n");
  Table a({"partition(KB)", "1Gbps (img/s)", "10Gbps (img/s)"});
  for (Bytes p : sizes) {
    a.AddRow({Table::Num(static_cast<double>(p) / 1024, 0),
              Table::Num(SpeedWith(Bandwidth::Gbps(1), p, 8 * p), 1),
              Table::Num(SpeedWith(Bandwidth::Gbps(10), p, 8 * p), 1)});
  }
  a.RenderAscii(std::cout);

  std::printf("\n(b) speed vs credit size (partition = 320KB)\n");
  Table b({"credit(KB)", "1Gbps (img/s)", "10Gbps (img/s)"});
  for (Bytes c : sizes) {
    b.AddRow({Table::Num(static_cast<double>(c) / 1024, 0),
              Table::Num(SpeedWith(Bandwidth::Gbps(1), KiB(320), c), 1),
              Table::Num(SpeedWith(Bandwidth::Gbps(10), KiB(320), c), 1)});
  }
  b.RenderAscii(std::cout);
  std::printf(
      "\nExpected shape: speed rises with partition size (per-partition overhead), more\n"
      "pronounced at 10 Gbps; speed rises with credit size (pipelining), then flattens.\n");
  // --trace/--metrics/--timeseries/--obs: one representative cell (the
  // 10 Gbps fabric of pane (b), where credit starvation is visible) rerun
  // with the sinks attached — the fig04-style artifacts obs_report's
  // --critical-path decomposition consumes.
  bench::MaybeWriteObsArtifacts(
      bench::MakeJob(Vgg16(), Setup::MxnetPsTcp(), 4, Bandwidth::Gbps(10)));
  return 0;
}
