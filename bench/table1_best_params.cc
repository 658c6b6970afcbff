// Regenerates Table 1: best partition size and credit size (MB) found by
// exhaustive grid search for VGG16 / ResNet50 / Transformer under MXNet PS
// RDMA and MXNet NCCL RDMA, 32 GPUs, 100 Gbps.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/harness.h"
#include "src/common/table.h"
#include "src/exec/sweep_runner.h"
#include "src/model/zoo.h"
#include "src/tuning/auto_tuner.h"
#include "src/tuning/search.h"

using namespace bsched;

namespace {

constexpr int kLattice = 8;

// Profiles every lattice point concurrently, then picks the best in lattice
// order, so the result does not depend on the worker count.
TunedParams GridBest(const ModelProfile& model, const Setup& setup) {
  JobConfig job = bench::MakeJob(model, setup, 4, Bandwidth::Gbps(100));
  job.measure_iters = 3;
  AutoTunerOptions opt;
  opt.partition_lo = KiB(256);
  const AutoTuner tuner(job, opt);
  GridSearch grid(2, kLattice);
  std::vector<TunedParams> points(static_cast<size_t>(grid.total_points()));
  for (TunedParams& point : points) {
    const std::vector<double> x = grid.Suggest();
    point = TunedParams{tuner.PartitionFromUnit(x[0]), tuner.CreditFromUnit(x[1])};
  }
  const std::vector<double> speeds =
      ParallelFor(points.size(), [&tuner, &points](size_t i) {
        return tuner.EvaluateConfigured(points[i].partition_bytes, points[i].credit_bytes);
      });
  TunedParams best{};
  double best_speed = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (speeds[i] > best_speed) {
      best_speed = speeds[i];
      best = TunedParams{points[i].partition_bytes,
                         std::max(points[i].credit_bytes, points[i].partition_bytes)};
    }
  }
  return best;
}

std::string Mb(Bytes b) { return Table::Num(static_cast<double>(b) / 1e6, 1); }

}  // namespace

int main(int argc, char** argv) {
  bench::InitBenchJobs(argc, argv);
  std::printf("Table 1: best (partition MB, credit MB) per model and architecture\n"
              "(grid search over an %dx%d log lattice; 32 GPUs, 100 Gbps)\n\n",
              kLattice, kLattice);
  Table table({"arch", "VGG16", "ResNet50", "Transformer"});
  for (const Setup& setup : {Setup::MxnetPsRdma(), Setup::MxnetNcclRdma()}) {
    std::vector<std::string> row = {setup.name};
    for (const auto& model : {Vgg16(), ResNet50(), Transformer()}) {
      const TunedParams best = GridBest(model, setup);
      row.push_back("(" + Mb(best.partition_bytes) + ", " + Mb(best.credit_bytes) + ")");
    }
    table.AddRow(std::move(row));
  }
  table.RenderAscii(std::cout);
  std::printf("\nPaper's Table 1: PS (6,21)/(3,17)/(5,29); NCCL (88,171)/(56,64)/(56,103).\n"
              "Expected shape: NCCL needs much larger partitions/credits than PS; best\n"
              "values differ across models.\n");
  return 0;
}
