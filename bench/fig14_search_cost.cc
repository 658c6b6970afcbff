// Regenerates Figure 14: search cost (number of trials until reaching the
// optimal configuration, as identified by grid search) of BO vs SGD-with-
// momentum vs random vs grid, for VGG16 and Transformer on MXNet PS RDMA and
// MXNet NCCL RDMA. Follows the paper's methodology: the objective is the
// profiled training speed on an 8x8 (partition, credit) lattice; an algorithm
// stops when it samples a lattice point within 1% of the lattice optimum.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/model/zoo.h"
#include "src/tuning/auto_tuner.h"
#include "src/tuning/search.h"

using namespace bsched;

namespace {

constexpr int kLattice = 8;
constexpr int kRepeats = 8;
constexpr int kMaxTrials = 64;  // grid needs the full lattice in the worst case

// The true objective on the lattice, profiled once per (model, arch): 64
// simulation runs, evaluated concurrently, regardless of how many
// algorithms/seeds search it.
class LatticeObjective {
 public:
  explicit LatticeObjective(const AutoTuner& tuner) {
    std::vector<TunedParams> points;
    for (int i = 0; i < kLattice; ++i) {
      for (int j = 0; j < kLattice; ++j) {
        points.push_back(
            TunedParams{tuner.PartitionFromUnit(static_cast<double>(i) / (kLattice - 1)),
                        tuner.CreditFromUnit(static_cast<double>(j) / (kLattice - 1))});
      }
    }
    const std::vector<double> speeds = bench::EvaluateLattice(tuner, points);
    for (int i = 0; i < kLattice; ++i) {
      for (int j = 0; j < kLattice; ++j) {
        speed_[i][j] = speeds[i * kLattice + j];
        optimum_ = std::max(optimum_, speed_[i][j]);
      }
    }
  }

  int SnapIndex(double u) const {
    return std::min(kLattice - 1, static_cast<int>(std::lround(u * (kLattice - 1))));
  }

  double True(int i, int j) const { return speed_[i][j]; }
  double Optimum() const { return optimum_; }

 private:
  double speed_[kLattice][kLattice];
  double optimum_ = 0.0;
};

// Runs one search until it hits 99% of the lattice optimum; returns trials.
int TrialsToOptimum(ParamSearch& search, const LatticeObjective& objective, double optimum,
                    uint64_t seed) {
  Rng noise(seed ^ 0xabcdef);
  for (int trial = 1; trial <= kMaxTrials; ++trial) {
    const std::vector<double> x = search.Suggest();
    const int i = objective.SnapIndex(x[0]);
    const int j = objective.SnapIndex(x[1]);
    const double truth = objective.True(i, j);
    search.Observe(x, truth * (1.0 + 0.01 * noise.NextGaussian()));
    if (truth >= 0.99 * optimum) {
      return trial;
    }
  }
  return kMaxTrials;
}

void RunPane(const char* label, const ModelProfile& model, const Setup& setup) {
  JobConfig job = bench::MakeJob(model, setup, 4, Bandwidth::Gbps(100));
  job.measure_iters = 3;
  const LatticeObjective objective(AutoTuner(job, AutoTunerOptions()));
  const double optimum = objective.Optimum();

  Table table({"algorithm", "trials (mean)", "trials (std)"});
  for (const char* algo : {"BO", "SGD", "Random", "Grid"}) {
    if (std::string(algo) == "Grid") {
      // Grid search cannot certify the optimum before sweeping the whole
      // lattice, so its cost is the full sweep.
      table.AddRow({algo, Table::Num(kLattice * kLattice, 1), Table::Num(0.0, 1)});
      continue;
    }
    RunningStats stats;
    for (uint64_t seed = 1; seed <= kRepeats; ++seed) {
      std::unique_ptr<ParamSearch> search;
      if (std::string(algo) == "BO") {
        search = std::make_unique<BayesianOptimizer>(2, seed);
      } else if (std::string(algo) == "SGD") {
        search = std::make_unique<SgdMomentumSearch>(2, seed);
      } else {
        search = std::make_unique<RandomSearch>(2, seed);
      }
      stats.Add(TrialsToOptimum(*search, objective, optimum, seed));
    }
    table.AddRow({algo, Table::Num(stats.mean(), 1), Table::Num(stats.stddev(), 1)});
  }
  std::printf("-- %s --\n", label);
  table.RenderAscii(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitObsBenchJobs(argc, argv);
  std::printf("Figure 14: search cost of auto-tuning algorithms (trials to reach the\n"
              "grid-search optimum; %d seeds each)\n\n", kRepeats);
  RunPane("VGG16, MXNet PS RDMA", Vgg16(), Setup::MxnetPsRdma());
  RunPane("Transformer, MXNet PS RDMA", Transformer(), Setup::MxnetPsRdma());
  RunPane("VGG16, MXNet NCCL RDMA", Vgg16(), Setup::MxnetNcclRdma());
  RunPane("Transformer, MXNet NCCL RDMA", Transformer(), Setup::MxnetNcclRdma());
  std::printf("Expected shape: BO reaches the optimum in fewer trials and with lower\n"
              "variance than random search and SGD-with-momentum; grid search is the\n"
              "deterministic worst case.\n");
  // --trace/--metrics/--timeseries/--obs: artifacts from the first pane's
  // job at the tuned operating point.
  bench::MaybeWriteObsArtifacts(
      bench::MakeJob(Vgg16(), Setup::MxnetPsRdma(), 4, Bandwidth::Gbps(100)));
  return 0;
}
