// Search strategies for the (partition, credit) knobs: the paper's Bayesian
// Optimization tuner plus the three classic baselines it is compared against
// in §6.3 / Figure 14 (grid search, random search, SGD with momentum). All
// strategies operate on the unit hypercube; the AutoTuner maps coordinates to
// byte sizes on a log scale.
#ifndef SRC_TUNING_SEARCH_H_
#define SRC_TUNING_SEARCH_H_

#include <memory>
#include <string>
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

  virtual const std::string& name() const = 0;
  virtual int dims() const = 0;
};

// Bayesian Optimization: GP surrogate + Expected Improvement, maximized over
// random candidate points. The first `init_samples` suggestions are
// space-filling random draws.
class BayesianOptimizer : public ParamSearch {
 public:
  struct Options {
    int init_samples = 3;
    int candidates = 512;
    // EI exploration weight; the paper uses the common default 0.1.
    double xi = 0.1;
    GaussianProcess::Hyper gp;
  };

  BayesianOptimizer(int dims, uint64_t seed) : BayesianOptimizer(dims, seed, Options()) {}
  BayesianOptimizer(int dims, uint64_t seed, Options options);

  std::vector<double> Suggest() override;
  void Observe(const std::vector<double>& x, double y) override;
  const std::string& name() const override { return name_; }
  int dims() const override { return dims_; }

  // Posterior access (used by the Figure 9 bench to plot the GP belief).
  const GaussianProcess& gp() const { return gp_; }

 private:
  int dims_;
  Options options_;
  Rng rng_;
  GaussianProcess gp_;
  std::string name_ = "bayesian";
};

class RandomSearch : public ParamSearch {
 public:
  RandomSearch(int dims, uint64_t seed);
  std::vector<double> Suggest() override;
  void Observe(const std::vector<double>& /*x*/, double /*y*/) override {}
  const std::string& name() const override { return name_; }
  int dims() const override { return dims_; }

 private:
  int dims_;
  Rng rng_;
  std::string name_ = "random";
};

// Sweeps a regular lattice with `points_per_dim` points per dimension, in
// row-major order; wraps around if asked for more points.
class GridSearch : public ParamSearch {
 public:
  GridSearch(int dims, int points_per_dim);
  std::vector<double> Suggest() override;
  void Observe(const std::vector<double>& /*x*/, double /*y*/) override {}
  const std::string& name() const override { return name_; }
  int dims() const override { return dims_; }
  int total_points() const;

 private:
  int dims_;
  int points_per_dim_;
  int64_t next_ = 0;
  std::string name_ = "grid";
};

// Hill climbing with momentum on a noisy objective: estimates the gradient by
// forward differences (one extra probe per dimension, interleaved with the
// momentum steps) and restarts from a random point when progress stalls —
// the §6.3 "SGD with momentum" baseline.
class SgdMomentumSearch : public ParamSearch {
 public:
  struct Options {
    double step = 0.15;
    double momentum = 0.9;
    double probe_delta = 0.08;
    int stall_restart = 4;  // restarts after this many non-improving steps
  };

  SgdMomentumSearch(int dims, uint64_t seed) : SgdMomentumSearch(dims, seed, Options()) {}
  SgdMomentumSearch(int dims, uint64_t seed, Options options);
  std::vector<double> Suggest() override;
  void Observe(const std::vector<double>& x, double y) override;
  const std::string& name() const override { return name_; }
  int dims() const override { return dims_; }

 private:
  void Restart();

  int dims_;
  Options options_;
  Rng rng_;
  std::string name_ = "sgd-momentum";

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
