#include "src/net/rate_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace bsched {
namespace {

// Collapse adjacent steps with equal scale so NextChangeAfter never reports a
// breakpoint where nothing changes (keeps the Link's re-pace walk minimal).
std::vector<RateStep> Dedup(std::vector<RateStep> steps) {
  std::vector<RateStep> out;
  out.reserve(steps.size());
  for (const RateStep& s : steps) {
    if (!out.empty() && out.back().scale == s.scale) continue;
    out.push_back(s);
  }
  return out;
}

}  // namespace

RateModel::RateModel() : steps_{{SimTime(), 1.0}} {}

RateModel RateModel::Constant(double scale) {
  BSCHED_CHECK(scale > 0.0 && "rate scale must be positive");
  RateModel m;
  m.steps_ = {{SimTime(), scale}};
  return m;
}

RateModel RateModel::Piecewise(std::vector<RateStep> steps) {
  RateModel m;
  if (steps.empty()) return m;
  for (size_t i = 0; i < steps.size(); ++i) {
    BSCHED_CHECK(steps[i].scale > 0.0 && "rate scale must be positive");
    if (i > 0) BSCHED_CHECK(steps[i - 1].start < steps[i].start && "steps must be sorted, unique");
  }
  if (steps.front().start > SimTime()) {
    steps.insert(steps.begin(), RateStep{SimTime(), 1.0});
  }
  m.steps_ = Dedup(std::move(steps));
  return m;
}

RateModel RateModel::RandomWalk(uint64_t seed, double amplitude, SimTime period,
                                SimTime horizon) {
  BSCHED_CHECK(amplitude >= 0.0 && amplitude <= 1.0 && "amplitude must lie in [0, 1]");
  if (amplitude == 0.0 || period <= SimTime() || horizon <= SimTime()) return RateModel();
  const double lo = std::max(1.0 - amplitude, kMinScale);
  Rng rng(seed ^ 0x7a7e9a11d51f7ULL);
  std::vector<RateStep> steps;
  double scale = 1.0;
  for (SimTime t; t < horizon; t += period) {
    steps.push_back({t, scale});
    // Reflected step: wander within [lo, 1] without sticking to the walls.
    scale += rng.Uniform(-1.0, 1.0) * amplitude * 0.35;
    if (scale > 1.0) scale = 2.0 - scale;
    if (scale < lo) scale = 2.0 * lo - scale;
    scale = std::min(1.0, std::max(lo, scale));
  }
  return Piecewise(std::move(steps));
}

RateModel RateModel::CrossTraffic(uint64_t seed, int flows, double load, SimTime period,
                                  double duty, SimTime horizon) {
  BSCHED_CHECK(load >= 0.0 && load < 1.0 && "per-flow load must lie in [0, 1)");
  BSCHED_CHECK(duty >= 0.0 && duty <= 1.0 && "duty cycle must lie in [0, 1]");
  if (flows <= 0 || load == 0.0 || duty == 0.0 || period <= SimTime() || horizon <= SimTime()) {
    return RateModel();
  }
  RateModel composite;
  for (int f = 0; f < flows; ++f) {
    Rng rng(seed ^ (0xc0551f10ULL + static_cast<uint64_t>(f) * 0x9e3779b97f4a7c15ULL));
    std::vector<RateStep> steps;
    // Each flow free-runs its own jittered on/off cycle from a random phase.
    SimTime t = SimTime(rng.UniformInt(0, period.nanos()));
    if (t > SimTime()) steps.push_back({SimTime(), 1.0});
    while (t < horizon) {
      const SimTime cycle = SimTime(llround(static_cast<double>(period.nanos()) * rng.Uniform(0.7, 1.3)));
      SimTime on = SimTime(llround(static_cast<double>(cycle.nanos()) * duty * rng.Uniform(0.6, 1.4)));
      on = std::min(on, cycle);
      if (on > SimTime()) {
        steps.push_back({t, 1.0 - load});
        steps.push_back({t + on, 1.0});
      }
      t += cycle;
    }
    composite = Compose(composite, Piecewise(std::move(steps)));
  }
  // Foreground progress floor: stacked flows must not starve the link.
  std::vector<RateStep> floored = composite.steps_;
  for (RateStep& s : floored) s.scale = std::max(s.scale, kMinScale);
  composite.steps_ = Dedup(std::move(floored));
  return composite;
}

RateModel RateModel::Compose(const RateModel& a, const RateModel& b) {
  if (a.IsIdentity()) return b;
  if (b.IsIdentity()) return a;
  std::vector<RateStep> merged;
  merged.reserve(a.steps_.size() + b.steps_.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.steps_.size() || j < b.steps_.size()) {
    SimTime t;
    if (j >= b.steps_.size()) {
      t = a.steps_[i].start;
    } else if (i >= a.steps_.size()) {
      t = b.steps_[j].start;
    } else {
      t = std::min(a.steps_[i].start, b.steps_[j].start);
    }
    while (i < a.steps_.size() && a.steps_[i].start == t) ++i;
    while (j < b.steps_.size() && b.steps_[j].start == t) ++j;
    merged.push_back({t, a.steps_[i - 1].scale * b.steps_[j - 1].scale});
  }
  RateModel m;
  m.steps_ = Dedup(std::move(merged));
  return m;
}

double RateModel::ScaleAt(SimTime now) const {
  // Last step with start <= now; steps_[0].start == 0 guarantees a hit.
  auto it = std::upper_bound(steps_.begin(), steps_.end(), now,
                             [](SimTime t, const RateStep& s) { return t < s.start; });
  return (it - 1)->scale;
}

SimTime RateModel::NextChangeAfter(SimTime now) const {
  auto it = std::upper_bound(steps_.begin(), steps_.end(), now,
                             [](SimTime t, const RateStep& s) { return t < s.start; });
  return it == steps_.end() ? SimTime::Max() : it->start;
}

}  // namespace bsched
