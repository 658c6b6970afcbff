// Regenerates Figure 13: training speed under different network bandwidths
// (1/10/25/40/100 Gbps, 32 GPUs) for baseline, Fixed Scheduler (parameters
// tuned once at 1 Gbps, reused everywhere) and Tuned Scheduler (BO auto-tuned
// per bandwidth), on MXNet PS RDMA and MXNet NCCL RDMA.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/harness.h"
#include "src/common/table.h"
#include "src/exec/sweep_runner.h"
#include "src/model/zoo.h"
#include "src/tuning/auto_tuner.h"

using namespace bsched;

namespace {

const std::vector<double> kGbps = {1, 10, 25, 40, 100};

TunedParams BoTune(const JobConfig& job) {
  AutoTunerOptions opt;
  opt.max_trials = 8;
  opt.partition_lo = KiB(256);
  opt.seed = 17;
  opt.profile_iters = 2;
  AutoTuner tuner(job, opt);
  return tuner.TuneWithBo().best;
}

void RunPane(const char* label, const ModelProfile& model, const Setup& setup) {
  // "Fixed" parameters: tuned once for 1 Gbps, reused at all bandwidths.
  JobConfig at_1g = bench::MakeJob(model, setup, 4, Bandwidth::Gbps(1));
  at_1g.measure_iters = 3;
  const TunedParams fixed = BoTune(at_1g);

  Table table({"Gbps", "baseline", "fixed sched", "tuned sched", "tuned vs base"});
  double min_gain = 1e300;
  double max_gain = -1e300;
  struct Cell {
    double baseline;
    double fixed_speed;
    double tuned_speed;
  };
  // Per-bandwidth cells (including their BO tuning runs) are independent;
  // sweep them concurrently and render in bandwidth order.
  const std::vector<Cell> cells = ParallelFor(kGbps.size(), [&](size_t i) {
    JobConfig job = bench::MakeJob(model, setup, 4, Bandwidth::Gbps(kGbps[i]));
    job.measure_iters = 3;
    Cell cell;
    cell.baseline = bench::RunSpeed(bench::WithMode(job, SchedMode::kVanilla));

    JobConfig fixed_job = job;
    fixed_job.mode = SchedMode::kByteScheduler;
    fixed_job.partition_bytes = fixed.partition_bytes;
    fixed_job.credit_bytes = fixed.credit_bytes;
    cell.fixed_speed = bench::RunSpeed(fixed_job);

    const TunedParams tuned = BoTune(job);
    JobConfig tuned_job = job;
    tuned_job.mode = SchedMode::kByteScheduler;
    tuned_job.partition_bytes = tuned.partition_bytes;
    tuned_job.credit_bytes = tuned.credit_bytes;
    cell.tuned_speed = bench::RunSpeed(tuned_job);
    return cell;
  });
  for (size_t i = 0; i < kGbps.size(); ++i) {
    const Cell& cell = cells[i];
    const double gain = cell.tuned_speed / cell.baseline - 1.0;
    min_gain = std::min(min_gain, gain);
    max_gain = std::max(max_gain, gain);
    table.AddRow({Table::Num(kGbps[i], 0), Table::Num(cell.baseline, 0),
                  Table::Num(cell.fixed_speed, 0), Table::Num(cell.tuned_speed, 0),
                  bench::GainPercent(cell.tuned_speed, cell.baseline)});
  }
  std::printf("-- %s (tuned speedup %0.0f%%-%0.0f%%) --\n", label, 100 * min_gain,
              100 * max_gain);
  table.RenderAscii(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitObsBenchJobs(argc, argv);
  std::printf("Figure 13: speed vs bandwidth, 32 GPUs, baseline / fixed / tuned scheduler\n\n");
  struct Pane {
    const char* label;
    ModelProfile model;
    Setup setup;
  };
  const std::vector<Pane> panes = {
      {"(a) VGG16, PS", Vgg16(), Setup::MxnetPsRdma()},
      {"(b) VGG16, NCCL", Vgg16(), Setup::MxnetNcclRdma()},
      {"(c) ResNet50, PS", ResNet50(), Setup::MxnetPsRdma()},
      {"(d) ResNet50, NCCL", ResNet50(), Setup::MxnetNcclRdma()},
      {"(e) Transformer, PS", Transformer(), Setup::MxnetPsRdma()},
      {"(f) Transformer, NCCL", Transformer(), Setup::MxnetNcclRdma()},
  };
  for (const Pane& pane : panes) {
    RunPane(pane.label, pane.model, pane.setup);
  }
  std::printf("Expected shape: tuned >= fixed >= baseline almost everywhere; fixed (1 Gbps\n"
              "parameters) degrades at high bandwidth; ResNet50 gains shrink as bandwidth\n"
              "grows while VGG16/Transformer gains persist.\n");
  // --trace/--metrics/--timeseries/--obs: artifacts from the first pane's
  // 10 Gbps cell, where the fixed-vs-tuned gap is widest.
  bench::MaybeWriteObsArtifacts(
      bench::MakeJob(Vgg16(), Setup::MxnetPsRdma(), 4, Bandwidth::Gbps(10)));
  return 0;
}
