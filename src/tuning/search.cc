#include "src/tuning/search.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace bsched {
namespace {

double Clip01(double v) { return std::clamp(v, 0.0, 1.0); }

// BayesianOptimizer: random draws before the GP is consulted, EI candidates
// per suggestion, and the EI exploration weight (the paper uses the common
// default 0.1).
constexpr int kBoInitSamples = 3;
constexpr int kBoCandidates = 512;
constexpr double kBoXi = 0.1;

// SgdMomentumSearch: step length, momentum, forward-difference probe
// distance, and the non-improving steps that trigger a restart.
constexpr double kSgdStep = 0.15;
constexpr double kSgdMomentum = 0.9;
constexpr double kSgdProbeDelta = 0.08;
constexpr int kSgdStallRestart = 4;

}  // namespace

// ---- BayesianOptimizer ------------------------------------------------------

BayesianOptimizer::BayesianOptimizer(int dims, uint64_t seed)
    : dims_(dims), rng_(seed), gp_(dims) {}

std::vector<double> BayesianOptimizer::Suggest() {
  std::vector<double> x(dims_);
  if (gp_.num_samples() < static_cast<size_t>(kBoInitSamples)) {
    for (double& v : x) {
      v = rng_.NextDouble();
    }
    return x;
  }
  // Maximize Expected Improvement over random candidates.
  const double best = gp_.best_y();
  double best_ei = -1.0;
  std::vector<double> cand(dims_);
  for (int c = 0; c < kBoCandidates; ++c) {
    for (double& v : cand) {
      v = rng_.NextDouble();
    }
    const GaussianProcess::Prediction p = gp_.Predict(cand);
    // xi is relative to the objective scale; use |best| as the scale anchor.
    const double xi = kBoXi * std::abs(best);
    const double ei = ExpectedImprovement(p.mean, p.variance, best, xi);
    if (ei > best_ei) {
      best_ei = ei;
      x = cand;
    }
  }
  return x;
}

void BayesianOptimizer::Observe(const std::vector<double>& x, double y) { gp_.Add(x, y); }

// ---- RandomSearch -----------------------------------------------------------

RandomSearch::RandomSearch(int dims, uint64_t seed) : dims_(dims), rng_(seed) {}

std::vector<double> RandomSearch::Suggest() {
  std::vector<double> x(dims_);
  for (double& v : x) {
    v = rng_.NextDouble();
  }
  return x;
}

// ---- SgdMomentumSearch ------------------------------------------------------

SgdMomentumSearch::SgdMomentumSearch(int dims, uint64_t seed) : dims_(dims), rng_(seed) {
  Restart();
}

void SgdMomentumSearch::Restart() {
  current_.assign(dims_, 0.0);
  for (double& v : current_) {
    v = rng_.NextDouble();
  }
  velocity_.assign(dims_, 0.0);
  gradient_.assign(dims_, 0.0);
  have_current_ = false;
  probe_dim_ = 0;
  stalls_ = 0;
}

std::vector<double> SgdMomentumSearch::Suggest() {
  if (!have_current_) {
    return current_;
  }
  if (probe_dim_ < dims_) {
    // Forward-difference probe along one axis (flipped near the boundary).
    std::vector<double> probe = current_;
    const double delta =
        (current_[probe_dim_] + kSgdProbeDelta <= 1.0) ? kSgdProbeDelta : -kSgdProbeDelta;
    probe[probe_dim_] = Clip01(current_[probe_dim_] + delta);
    return probe;
  }
  // All probes collected: momentum step along the normalized gradient.
  double norm = 0.0;
  for (double g : gradient_) {
    norm += g * g;
  }
  norm = std::sqrt(norm);
  std::vector<double> next(dims_);
  for (int d = 0; d < dims_; ++d) {
    const double dir = norm > 1e-12 ? gradient_[d] / norm : 0.0;
    velocity_[d] = kSgdMomentum * velocity_[d] + kSgdStep * dir;
    next[d] = Clip01(current_[d] + velocity_[d]);
  }
  return next;
}

void SgdMomentumSearch::Observe(const std::vector<double>& x, double y) {
  best_seen_ = std::max(best_seen_, y);
  if (!have_current_) {
    current_ = x;
    current_y_ = y;
    have_current_ = true;
    probe_dim_ = 0;
    gradient_.assign(dims_, 0.0);
    return;
  }
  if (probe_dim_ < dims_) {
    const double delta = x[probe_dim_] - current_[probe_dim_];
    gradient_[probe_dim_] = std::abs(delta) > 1e-12 ? (y - current_y_) / delta : 0.0;
    ++probe_dim_;
    return;
  }
  // Step result: accept unconditionally (plain SGD), track stalls, and
  // restart from a random point when stuck in a local optimum.
  if (y <= current_y_) {
    ++stalls_;
  } else {
    stalls_ = 0;
  }
  current_ = x;
  current_y_ = y;
  probe_dim_ = 0;
  gradient_.assign(dims_, 0.0);
  if (stalls_ >= kSgdStallRestart) {
    Restart();
  }
}

}  // namespace bsched
