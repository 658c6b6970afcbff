// Regenerates Table 1: best partition size and credit size (MB) found by
// exhaustive grid search for VGG16 / ResNet50 / Transformer under MXNet PS
// RDMA and MXNet NCCL RDMA, 32 GPUs, 100 Gbps.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/harness.h"
#include "src/common/table.h"
#include "src/model/zoo.h"
#include "src/tuning/auto_tuner.h"

using namespace bsched;

namespace {

constexpr int kLattice = 8;

// Profiles every lattice point concurrently, then picks the best in lattice
// order (credit-major, partition-minor; the first of equal speeds wins), so
// the result does not depend on the worker count. A point's unit
// coordinates are i / (kLattice - 1), as in Figure 14's lattice.
TunedParams GridBest(const ModelProfile& model, const Setup& setup) {
  JobConfig job = bench::MakeJob(model, setup, 4, Bandwidth::Gbps(100));
  job.measure_iters = 3;
  AutoTunerOptions opt;
  opt.partition_lo = KiB(256);
  const AutoTuner tuner(job, opt);
  std::vector<TunedParams> points;
  points.reserve(kLattice * kLattice);
  for (int j = 0; j < kLattice; ++j) {
    for (int i = 0; i < kLattice; ++i) {
      points.push_back(TunedParams{
          tuner.PartitionFromUnit(static_cast<double>(i) / (kLattice - 1)),
          tuner.CreditFromUnit(static_cast<double>(j) / (kLattice - 1))});
    }
  }
  const std::vector<double> speeds = bench::EvaluateLattice(tuner, points);
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
