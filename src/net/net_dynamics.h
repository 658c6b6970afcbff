// Job-level configuration for the dynamic-network fabric: seeded random-walk
// bandwidth drift, CASSINI-style cross traffic, asymmetric up/down rates, an
// oversubscribed two-tier rack topology, and loss-driven AIMD rate control.
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
  uint64_t seed = 1;

  // Random-walk bandwidth drift: every link wanders within
  // [1 - volatility_amplitude, 1] of its line rate, stepping every period.
  double volatility_amplitude = 0.0;
  SimTime volatility_period = SimTime::Millis(2);

  // Cross traffic: seeded on/off background flows per link, each claiming
  // cross_load of capacity while on (duty cycle of the jittered period).
  int cross_flows = 0;
  double cross_load = 0.4;
  SimTime cross_period = SimTime::Millis(3);
  double cross_duty = 0.5;

  // Asymmetric rates: receive-direction links (worker downlinks) run at this
  // fraction of the line rate. 1.0 = symmetric.
  double down_scale = 1.0;

  // Schedules span [0, horizon) and hold their last value afterwards.
  SimTime horizon = SimTime::Millis(600);

  // Two-tier topology: with racks > 1, worker w lives in rack w % racks and
  // PS shard s in rack s % racks; cross-rack transfers traverse the
  // oversubscribed spine and are paced at line_rate / oversubscription.
  int racks = 1;
  double oversubscription = 4.0;

  AimdConfig aimd;

  bool volatile_links() const {
    return volatility_amplitude > 0.0 || cross_flows > 0 || down_scale != 1.0;
  }
  bool topology() const { return racks > 1 && oversubscription > 1.0; }
  bool enabled() const {
    return volatile_links() || topology() || aimd.enable;
  }
};

// Deterministic schedule for one named link: random-walk drift composed with
// cross traffic, each salted by a hash of the link name; `down` additionally
// applies the asymmetric down_scale derating.
RateModel BuildLinkRateModel(const NetDynamicsConfig& config, const std::string& link_name,
                             bool down);

// Pacing multiplier for one worker<->shard transfer under the two-tier
// topology: 1.0 within a rack, 1 / oversubscription across the spine.
double CrossRackScale(const NetDynamicsConfig& config, int worker, int shard);

}  // namespace bsched

#endif  // SRC_NET_NET_DYNAMICS_H_
