// Job-level configuration for the dynamic-network fabric: seeded random-walk
// bandwidth drift, CASSINI-style cross traffic, asymmetric up/down rates and
// loss-driven AIMD rate control.
// Everything derives deterministically from (seed, link name), mirroring the
// FaultPlan discipline, so enabling dynamics keeps results bit-identical at
// any --jobs N. A default-constructed config is fully disabled: every link
// keeps its identity schedule, so timings are the nominal fixed-rate ones.
#ifndef SRC_NET_NET_DYNAMICS_H_
#define SRC_NET_NET_DYNAMICS_H_

#include <cstdint>
#include <string>

#include "src/common/units.h"
#include "src/net/rate_controller.h"
#include "src/net/rate_model.h"

namespace bsched {

struct NetDynamicsConfig {
  // Random-walk steps every kVolatilityPeriod; cross flows cycle on/off over
  // a jittered kCrossPeriod, on for kCrossDuty of it. Schedules span
  // [0, kHorizon) and hold their last value afterwards.
  static constexpr SimTime kVolatilityPeriod = SimTime::Millis(2);
  static constexpr SimTime kCrossPeriod = SimTime::Millis(3);
  static constexpr double kCrossDuty = 0.5;
  static constexpr SimTime kHorizon = SimTime::Millis(600);

  uint64_t seed = 1;

  // Random-walk bandwidth drift: every link wanders within
  // [1 - volatility_amplitude, 1] of its line rate.
  double volatility_amplitude = 0.0;

  // Cross traffic: seeded on/off background flows per link, each claiming
  // cross_load of capacity while on.
  int cross_flows = 0;
  double cross_load = 0.4;

  // Asymmetric rates: receive-direction links (worker downlinks) run at this
  // fraction of the line rate. 1.0 = symmetric.
  double down_scale = 1.0;

  AimdConfig aimd;

  bool volatile_links() const {
    return volatility_amplitude > 0.0 || cross_flows > 0 || down_scale != 1.0;
  }
  bool enabled() const { return volatile_links() || aimd.enable; }
};

// Deterministic schedule for one named link: random-walk drift composed with
// cross traffic, each salted by a hash of the link name; `down` additionally
// applies the asymmetric down_scale derating.
RateModel BuildLinkRateModel(const NetDynamicsConfig& config, const std::string& link_name,
                             bool down);

}  // namespace bsched

#endif  // SRC_NET_NET_DYNAMICS_H_
