#include "src/net/rate_controller.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/net/link.h"

namespace bsched {

RateController::RateController(Link* link, const AimdConfig& config)
    : link_(link), config_(config) {
  BSCHED_CHECK(link != nullptr);
  BSCHED_CHECK(config.min_scale > 0.0 && config.min_scale <= 1.0);
  BSCHED_CHECK(config.multiplicative_decrease > 0.0 && config.multiplicative_decrease < 1.0);
  BSCHED_CHECK(config.additive_increase > 0.0);
}

void RateController::OnLoss() {
  scale_ = std::max(config_.min_scale, scale_ * config_.multiplicative_decrease);
  ++decreases_;
  link_->SetCtrlScale(scale_);
}

void RateController::OnAck() {
  if (scale_ >= 1.0) return;
  scale_ = std::min(1.0, scale_ + config_.additive_increase);
  ++increases_;
  link_->SetCtrlScale(scale_);
}

}  // namespace bsched
