// Regenerates Figure 9: Bayesian Optimization tuning the credit size for
// VGG16 on MXNet all-reduce — 7 samples, then the GP posterior (prediction
// and 95% confidence interval) over the credit axis.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/harness.h"
#include "src/common/table.h"
#include "src/model/zoo.h"
#include "src/tuning/auto_tuner.h"
#include "src/tuning/search.h"

using namespace bsched;

int main(int argc, char** argv) {
  bench::InitBenchJobs(argc, argv);
  JobConfig job = bench::MakeJob(Vgg16(), Setup::MxnetNcclRdma(), 4, Bandwidth::Gbps(100));

  AutoTunerOptions opt;
  opt.credit_lo = MiB(8);
  opt.credit_hi = MiB(320);
  opt.noise_frac = 0.01;
  opt.seed = 3;
  AutoTuner tuner(job, opt);
  const Bytes partition = MiB(64);  // fixed; only the credit is tuned here

  BayesianOptimizer bo(1, opt.seed);
  std::printf("Figure 9: BO tuning credit size, VGG16 MXNet all-reduce (partition fixed 64MB)\n\n");
  Table samples({"trial", "credit(MB)", "speed (img/s)"});
  for (int trial = 0; trial < 7; ++trial) {
    const std::vector<double> x = bo.Suggest();
    const Bytes credit = tuner.CreditFromUnit(x[0]);
    const double speed = tuner.EvaluateObjective(partition, credit);
    bo.Observe(x, speed);
    samples.AddRow({std::to_string(trial + 1),
                    Table::Num(static_cast<double>(credit) / MiB(1), 1), Table::Num(speed, 1)});
  }
  std::printf("samples:\n");
  samples.RenderAscii(std::cout);

  std::printf("\nGP posterior over credit size (mean and 95%% confidence interval):\n");
  Table posterior({"credit(MB)", "prediction", "ci95_low", "ci95_high"});
  for (int i = 0; i <= 16; ++i) {
    const double u = i / 16.0;
    const Bytes credit = tuner.CreditFromUnit(u);
    const GaussianProcess::Prediction p = bo.gp().Predict({u});
    const double half = 1.96 * std::sqrt(p.variance);
    posterior.AddRow({Table::Num(static_cast<double>(credit) / MiB(1), 1),
                      Table::Num(p.mean, 1), Table::Num(p.mean - half, 1),
                      Table::Num(p.mean + half, 1)});
  }
  posterior.RenderAscii(std::cout);
  std::printf("\nExpected shape: CI tight near sampled credits, wide elsewhere; BO samples\n"
              "concentrate where the posterior predicts high speed.\n");
  return 0;
}
