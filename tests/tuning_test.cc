#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/model/zoo.h"
#include "src/tuning/auto_tuner.h"
#include "src/tuning/gaussian_process.h"
#include "src/tuning/search.h"

namespace bsched {
namespace {

TEST(GaussianProcessTest, PriorWithoutData) {
  GaussianProcess gp(2);
  auto p = gp.Predict({0.5, 0.5});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_DOUBLE_EQ(p.variance, 1.0);
}

TEST(GaussianProcessTest, InterpolatesObservations) {
  GaussianProcess::Hyper hyper;
  hyper.noise_var = 1e-6;
  GaussianProcess gp(1, hyper);
  gp.Add({0.2}, 1.0);
  gp.Add({0.8}, 3.0);
  auto at_obs = gp.Predict({0.2});
  EXPECT_NEAR(at_obs.mean, 1.0, 0.02);
  EXPECT_LT(at_obs.variance, 0.01);
  // Mid-point: between the two values, with higher uncertainty.
  auto mid = gp.Predict({0.5});
  EXPECT_GT(mid.mean, 1.0);
  EXPECT_LT(mid.mean, 3.0);
  EXPECT_GT(mid.variance, at_obs.variance);
}

TEST(GaussianProcessTest, UncertaintyGrowsAwayFromData) {
  GaussianProcess gp(1);
  gp.Add({0.5}, 2.0);
  EXPECT_LT(gp.Predict({0.5}).variance, gp.Predict({0.0}).variance);
}

TEST(GaussianProcessTest, FitsSmoothFunction) {
  GaussianProcess::Hyper hyper;
  hyper.noise_var = 1e-4;
  GaussianProcess gp(1, hyper);
  auto f = [](double x) { return std::sin(3.0 * x); };
  for (int i = 0; i <= 10; ++i) {
    const double x = i / 10.0;
    gp.Add({x}, f(x));
  }
  for (double x : {0.05, 0.33, 0.71, 0.95}) {
    EXPECT_NEAR(gp.Predict({x}).mean, f(x), 0.05) << x;
  }
}

TEST(GaussianProcessTest, BestYTracksMaximum) {
  GaussianProcess gp(1);
  gp.Add({0.1}, 5.0);
  gp.Add({0.9}, 2.0);
  EXPECT_DOUBLE_EQ(gp.best_y(), 5.0);
}

TEST(NormalTest, PdfCdf) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989, 1e-3);
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-9);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

TEST(ExpectedImprovementTest, Properties) {
  // Zero variance, mean below best: no improvement possible.
  EXPECT_DOUBLE_EQ(ExpectedImprovement(1.0, 0.0, 2.0, 0.0), 0.0);
  // Zero variance, mean above best: improvement is the gap.
  EXPECT_DOUBLE_EQ(ExpectedImprovement(3.0, 0.0, 2.0, 0.0), 1.0);
  // Positive variance always gives positive EI.
  EXPECT_GT(ExpectedImprovement(1.0, 0.5, 2.0, 0.0), 0.0);
  // More uncertainty -> more EI at equal mean (exploration).
  EXPECT_GT(ExpectedImprovement(1.0, 1.0, 2.0, 0.0), ExpectedImprovement(1.0, 0.1, 2.0, 0.0));
}

double Rosenbrockish(const std::vector<double>& x) {
  // Smooth 2-D objective with maximum at (0.7, 0.3).
  const double dx = x[0] - 0.7;
  const double dy = x[1] - 0.3;
  return 10.0 - 40.0 * dx * dx - 25.0 * dy * dy;
}

double RunSearch(ParamSearch& search, int trials, double noise, uint64_t seed) {
  Rng rng(seed);
  double best = -1e300;
  for (int t = 0; t < trials; ++t) {
    auto x = search.Suggest();
    const double y = Rosenbrockish(x) + noise * rng.NextGaussian();
    search.Observe(x, y);
    best = std::max(best, Rosenbrockish(x));  // true value of sampled point
  }
  return best;
}

TEST(BayesianOptimizerTest, FindsOptimumOfSmoothFunction) {
  BayesianOptimizer bo(2, 42);
  const double best = RunSearch(bo, 15, 0.05, 1);
  EXPECT_GT(best, 9.3);  // within ~7% of the max 10.0
}

TEST(BayesianOptimizerTest, BeatsRandomSearchOnAverage) {
  double bo_sum = 0.0;
  double rnd_sum = 0.0;
  const int kRepeats = 10;
  const int kTrials = 12;
  for (uint64_t seed = 0; seed < kRepeats; ++seed) {
    BayesianOptimizer bo(2, seed);
    RandomSearch rnd(2, seed);
    bo_sum += RunSearch(bo, kTrials, 0.05, seed);
    rnd_sum += RunSearch(rnd, kTrials, 0.05, seed);
  }
  EXPECT_GT(bo_sum / kRepeats, rnd_sum / kRepeats);
}

TEST(BayesianOptimizerTest, DeterministicPerSeed) {
  BayesianOptimizer a(2, 7);
  BayesianOptimizer b(2, 7);
  for (int t = 0; t < 6; ++t) {
    auto xa = a.Suggest();
    auto xb = b.Suggest();
    EXPECT_EQ(xa, xb);
    a.Observe(xa, Rosenbrockish(xa));
    b.Observe(xb, Rosenbrockish(xb));
  }
}

TEST(RandomSearchTest, PointsInUnitCube) {
  RandomSearch rnd(3, 5);
  for (int t = 0; t < 100; ++t) {
    for (double v : rnd.Suggest()) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST(SgdMomentumTest, ClimbsSmoothObjective) {
  SgdMomentumSearch sgd(2, 3);
  const double best = RunSearch(sgd, 30, 0.0, 1);
  EXPECT_GT(best, 8.5);
}

TEST(SgdMomentumTest, SuggestionsStayInBounds) {
  SgdMomentumSearch sgd(2, 11);
  Rng rng(2);
  for (int t = 0; t < 50; ++t) {
    auto x = sgd.Suggest();
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    sgd.Observe(x, rng.NextDouble());  // adversarial noise
  }
}

JobConfig TinyJob() {
  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsRdma();
  job.num_machines = 2;
  job.bandwidth = Bandwidth::Gbps(100);
  return job;
}

TEST(AutoTunerTest, UnitMappingIsLogScale) {
  AutoTunerOptions opt;
  opt.partition_lo = KiB(64);
  opt.partition_hi = MiB(64);
  AutoTuner tuner(TinyJob(), opt);
  EXPECT_EQ(tuner.PartitionFromUnit(0.0), KiB(64));
  EXPECT_EQ(tuner.PartitionFromUnit(1.0), MiB(64));
  // Half-way in log space = geometric mean (2 MiB).
  EXPECT_NEAR(static_cast<double>(tuner.PartitionFromUnit(0.5)), 2.0 * MiB(1),
              0.01 * MiB(1));
}

TEST(AutoTunerTest, BoTuningFindsGoodConfiguration) {
  AutoTunerOptions opt;
  opt.max_trials = 10;
  opt.seed = 4;
  AutoTuner tuner(TinyJob(), opt);
  AutoTuner::Result result = tuner.TuneWithBo();
  EXPECT_EQ(result.trials.size(), 10u);
  EXPECT_GT(result.best_speed, 0.0);
  // The tuned configuration should be close to the heuristic sweet spot:
  // within 3x either way of the DefaultTunedParams partition.
  const TunedParams heuristic = DefaultTunedParams(
      Vgg16(), ArchType::kPs, Setup::MxnetPsRdma().transport, Bandwidth::Gbps(100));
  const double ratio = static_cast<double>(result.best.partition_bytes) /
                       static_cast<double>(heuristic.partition_bytes);
  EXPECT_GT(ratio, 1.0 / 16);
  EXPECT_LT(ratio, 16.0);
}

TEST(AutoTunerTest, CreditFlooredAtPartition) {
  AutoTunerOptions opt;
  opt.max_trials = 6;
  opt.seed = 9;
  AutoTuner tuner(TinyJob(), opt);
  AutoTuner::Result result = tuner.TuneWithBo();
  EXPECT_GE(result.best.credit_bytes, result.best.partition_bytes);
}

TEST(AutoTunerTest, PsRestartCostCharged) {
  AutoTunerOptions opt;
  opt.max_trials = 5;
  opt.ps_restart_sec = 100.0;  // make restarts dominate
  AutoTuner tuner(TinyJob(), opt);
  RandomSearch rnd(2, 3);
  AutoTuner::Result result = tuner.Tune(rnd);
  // 4 partition changes after the first trial -> at least 400s of cost.
  EXPECT_GT(result.tuning_cost_sec, 400.0);
}

TEST(AutoTunerTest, TuneMatchesHandReplay) {
  // Tune is the plain sequential loop: Suggest, profile with one jitter
  // draw, Observe. Replaying that loop by hand against the same search and
  // seed must reproduce every trial bit for bit.
  AutoTunerOptions opt;
  opt.max_trials = 8;
  opt.seed = 11;
  opt.profile_iters = 2;
  AutoTuner tuner(TinyJob(), opt);
  const AutoTuner::Result result = tuner.TuneWithBo();
  ASSERT_EQ(result.trials.size(), 8u);

  AutoTuner replay(TinyJob(), opt);
  BayesianOptimizer bo(2, opt.seed);
  for (size_t i = 0; i < result.trials.size(); ++i) {
    const std::vector<double> x = bo.Suggest();
    const double speed =
        replay.EvaluateObjective(replay.PartitionFromUnit(x[0]), replay.CreditFromUnit(x[1]));
    bo.Observe(x, speed);
    EXPECT_EQ(std::memcmp(&speed, &result.trials[i].speed, sizeof(double)), 0) << i;
  }
}

TEST(AutoTunerTest, ObjectiveRewardsSaneParameters) {
  AutoTunerOptions opt;
  opt.noise_frac = 0.0;
  AutoTuner tuner(TinyJob(), opt);
  const double tiny = tuner.EvaluateObjective(KiB(64), KiB(64));
  const double sane = tuner.EvaluateObjective(MiB(4), MiB(20));
  EXPECT_GT(sane, tiny);
}

TEST(AutoTunerTest, PerLayerTuningNeverWorseThanUniform) {
  AutoTunerOptions opt;
  opt.noise_frac = 0.0;
  opt.seed = 5;
  AutoTuner tuner(TinyJob(), opt);
  const TunedParams uniform{MiB(4), MiB(20)};
  const double uniform_speed =
      tuner.EvaluateObjective(uniform.partition_bytes, uniform.credit_bytes);
  const AutoTuner::PerLayerResult refined = tuner.TunePerLayer(uniform, /*rounds=*/1);
  EXPECT_EQ(refined.per_layer.size(), TinyJob().model.layers.size());
  // Greedy refinement keeps the best seen, so it cannot end below uniform.
  EXPECT_GE(refined.speed, uniform_speed * 0.999);
  EXPECT_GT(refined.extra_trials, 1);
}

TEST(AutoTunerTest, PerLayerTuningOnlyTouchesPartitionedLayers) {
  AutoTunerOptions opt;
  opt.noise_frac = 0.0;
  AutoTuner tuner(TinyJob(), opt);
  const TunedParams uniform{MiB(4), MiB(20)};
  const AutoTuner::PerLayerResult refined = tuner.TunePerLayer(uniform, 1);
  const ModelProfile model = TinyJob().model;
  for (size_t i = 0; i < refined.per_layer.size(); ++i) {
    if (model.layers[i].param_bytes <= uniform.partition_bytes) {
      EXPECT_EQ(refined.per_layer[i], uniform.partition_bytes) << i;
    }
  }
}

}  // namespace
}  // namespace bsched
