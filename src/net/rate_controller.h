// Loss-driven AIMD rate control on top of a Link's RateModel seam. The PS
// backend's ack/retransmit machinery is the feedback signal: a push whose ack
// timer fires (loss) multiplicatively decreases the sender's pacing scale; a
// clean ack additively recovers it toward full rate. The controller only
// touches its own worker's uplink.
#ifndef SRC_NET_RATE_CONTROLLER_H_
#define SRC_NET_RATE_CONTROLLER_H_

#include <cstdint>

namespace bsched {

class Link;

struct AimdConfig {
  bool enable = false;
  // Scale recovered per clean ack and retained floor after decreases.
  double additive_increase = 0.05;
  double multiplicative_decrease = 0.5;
  double min_scale = 0.1;
};

class RateController {
 public:
  RateController(Link* link, const AimdConfig& config);

  // Ack timer fired: back off multiplicatively (floored at min_scale).
  void OnLoss();
  // Ack arrived in time: recover additively toward full rate.
  void OnAck();

  double scale() const { return scale_; }
  uint64_t decreases() const { return decreases_; }
  uint64_t increases() const { return increases_; }

 private:
  Link* link_;
  AimdConfig config_;
  double scale_ = 1.0;
  uint64_t decreases_ = 0;
  uint64_t increases_ = 0;
};

}  // namespace bsched

#endif  // SRC_NET_RATE_CONTROLLER_H_
