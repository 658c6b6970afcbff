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
  // One RateController per worker uplink.
  bool enable = false;
};

class RateController {
 public:
  // Scale recovered per clean ack, factor applied per loss, and the floor
  // decreases stop at.
  static constexpr double kAdditiveIncrease = 0.05;
  static constexpr double kMultiplicativeDecrease = 0.5;
  static constexpr double kMinScale = 0.1;

  explicit RateController(Link* link);

  // Ack timer fired: back off multiplicatively (floored at kMinScale).
  void OnLoss();
  // Ack arrived in time: recover additively toward full rate.
  void OnAck();

  double scale() const { return scale_; }
  uint64_t decreases() const { return decreases_; }
  uint64_t increases() const { return increases_; }

 private:
  Link* link_;
  double scale_ = 1.0;
  uint64_t decreases_ = 0;
  uint64_t increases_ = 0;
};

}  // namespace bsched

#endif  // SRC_NET_RATE_CONTROLLER_H_
