// Search strategies for the (partition, credit) knobs: the paper's Bayesian
// Optimization tuner plus two of the classic baselines it is compared against
// in §6.3 / Figure 14 (random search, SGD with momentum). The third, grid
// search, needs no strategy: its cost is the whole lattice, which Figure 14
// prints and Table 1 sweeps directly. All strategies operate on the unit
// hypercube; the AutoTuner maps coordinates to byte sizes on a log scale.
#ifndef SRC_TUNING_SEARCH_H_
#define SRC_TUNING_SEARCH_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/tuning/gaussian_process.h"

namespace bsched {

class ParamSearch {
 public:
  virtual ~ParamSearch() = default;

  // Proposes the next point to evaluate, in [0,1]^dims.
  virtual std::vector<double> Suggest() = 0;

  // Feeds back the objective value (higher is better) at a suggested point.
  virtual void Observe(const std::vector<double>& x, double y) = 0;

  virtual int dims() const = 0;
};

// Bayesian Optimization: GP surrogate (default hyperparameters) + Expected
// Improvement, maximized over random candidate points; the first few
// suggestions are space-filling random draws. Its settings are fixed
// constants (search.cc), as in the paper's tuner.
class BayesianOptimizer : public ParamSearch {
 public:
  BayesianOptimizer(int dims, uint64_t seed);

  std::vector<double> Suggest() override;
  void Observe(const std::vector<double>& x, double y) override;
  int dims() const override { return dims_; }

  // Posterior access (used by the Figure 9 bench to plot the GP belief).
  const GaussianProcess& gp() const { return gp_; }

 private:
  int dims_;
  Rng rng_;
  GaussianProcess gp_;
};

class RandomSearch : public ParamSearch {
 public:
  RandomSearch(int dims, uint64_t seed);
  std::vector<double> Suggest() override;
  void Observe(const std::vector<double>& /*x*/, double /*y*/) override {}
  int dims() const override { return dims_; }

 private:
  int dims_;
  Rng rng_;
};

// Hill climbing with momentum on a noisy objective: estimates the gradient by
// forward differences (one extra probe per dimension, interleaved with the
// momentum steps) and restarts from a random point when progress stalls —
// the §6.3 "SGD with momentum" baseline.
class SgdMomentumSearch : public ParamSearch {
 public:
  SgdMomentumSearch(int dims, uint64_t seed);
  std::vector<double> Suggest() override;
  void Observe(const std::vector<double>& x, double y) override;
  int dims() const override { return dims_; }

 private:
  void Restart();

  int dims_;
  Rng rng_;

  std::vector<double> current_;
  std::vector<double> velocity_;
  double current_y_ = 0.0;
  bool have_current_ = false;
  int probe_dim_ = 0;              // which dimension the pending probe tests
  std::vector<double> gradient_;   // finite-difference estimate being built
  int stalls_ = 0;
  double best_seen_ = 0.0;
};

}  // namespace bsched

#endif  // SRC_TUNING_SEARCH_H_
