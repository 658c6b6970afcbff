#include "src/net/rate_controller.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/net/link.h"

namespace bsched {

RateController::RateController(Link* link) : link_(link) { BSCHED_CHECK(link != nullptr); }

void RateController::OnLoss() {
  scale_ = std::max(kMinScale, scale_ * kMultiplicativeDecrease);
  ++decreases_;
  link_->SetCtrlScale(scale_);
}

void RateController::OnAck() {
  if (scale_ >= 1.0) return;
  scale_ = std::min(1.0, scale_ + kAdditiveIncrease);
  ++increases_;
  link_->SetCtrlScale(scale_);
}

}  // namespace bsched
