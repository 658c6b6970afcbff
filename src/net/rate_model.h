// Time-varying link capacity. A RateModel is a piecewise-constant schedule of
// capacity multipliers ("scales") on the simulator clock: scale 1.0 is the
// link's nominal line rate, 0.5 halves it. Every scale is positive: a
// schedule models cross traffic and drift, which never take a link to zero,
// and a link-down window is the fault plan's (FaultPlan::OutageDeferral).
// Schedules are pure data built deterministically up front (seeded
// random-walk drift, CASSINI-style on/off cross traffic, explicit steps),
// so a link's rate trajectory is a pure function of (seed, link name, time)
// — the same discipline FaultPlan uses. The Link consumes the schedule via
// ScaleAt/NextChangeAfter and re-paces in-flight transfers across scale
// boundaries (src/net/link.cc).
#ifndef SRC_NET_RATE_MODEL_H_
#define SRC_NET_RATE_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/units.h"

namespace bsched {

// One schedule segment: `scale` applies from `start` until the next step.
struct RateStep {
  SimTime start;
  double scale = 1.0;
};

class RateModel {
 public:
  // Identity schedule (constant scale 1.0).
  RateModel();

  // Constant and Piecewise CHECK that every scale is > 0.
  static RateModel Constant(double scale);
  // `steps` must be sorted by start with unique starts; a leading segment at
  // time 0 is synthesized (scale 1.0) when the first step starts later.
  static RateModel Piecewise(std::vector<RateStep> steps);

  // Seeded reflected random walk: every `period` the scale takes a uniform
  // step and reflects into [max(1 - amplitude, kMinScale), 1]. The walk spans
  // [0, horizon) and holds its last value afterwards.
  static RateModel RandomWalk(uint64_t seed, double amplitude, SimTime period, SimTime horizon);

  // CASSINI-style cross traffic: `flows` independent seeded on/off background
  // flows, each cycling with jittered period and duty cycle; while a flow is
  // on it claims `load` of the link, leaving the foreground 1 - load. Flows
  // compose multiplicatively and the result is floored at kMinScale so the
  // foreground always makes progress.
  static RateModel CrossTraffic(uint64_t seed, int flows, double load, SimTime period,
                                double duty, SimTime horizon);

  // Pointwise product of two schedules (merged breakpoints).
  static RateModel Compose(const RateModel& a, const RateModel& b);

  // Scale in effect at `now`.
  double ScaleAt(SimTime now) const;
  // First breakpoint strictly after `now`; SimTime::Max() when none remain.
  SimTime NextChangeAfter(SimTime now) const;

  bool IsIdentity() const { return steps_.size() == 1 && steps_[0].scale == 1.0; }
  const std::vector<RateStep>& steps() const { return steps_; }

  // Floor of the generated schedules: RandomWalk and CrossTraffic never
  // derate a link below this share of its line rate.
  static constexpr double kMinScale = 0.05;

 private:
  // Invariant: non-empty, sorted by start, steps_[0].start == 0.
  std::vector<RateStep> steps_;
};

}  // namespace bsched

#endif  // SRC_NET_RATE_MODEL_H_
