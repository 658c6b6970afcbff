#include "src/sim/resource.h"

#include <utility>

#include "src/common/check.h"

namespace bsched {

Resource::Resource(Simulator* sim) : sim_(sim) { BSCHED_CHECK(sim_ != nullptr); }

void Resource::Submit(SimTime duration, EventFn on_done) {
  BSCHED_CHECK(duration.nanos() >= 0);
  queue_.push_back(Job{duration, std::move(on_done)});
  if (!busy_) {
    StartNext();
  }
}

void Resource::StartNext() {
  BSCHED_DCHECK(!busy_);
  if (queue_.empty()) {
    return;
  }
  current_ = queue_.pop_front();
  busy_ = true;
  current_job_end_ = sim_->Now() + current_.duration;
  sim_->Schedule(current_.duration, [this] { OnJobDone(); });
}

void Resource::OnJobDone() {
  busy_ = false;
  busy_time_ += current_.duration;
  ++jobs_completed_;
  // Move the callback out first: it may submit work that starts right away
  // and overwrites current_.
  EventFn on_done = std::move(current_.on_done);
  // The completion callback runs before the next job starts, matching a real
  // stack where the ACK/CQE handler fires before the NIC pulls the next WQE.
  if (on_done) {
    on_done();
  }
  if (!busy_ && !queue_.empty()) {
    StartNext();
  }
}

SimTime Resource::DrainTime() const {
  SimTime t = busy_ ? current_job_end_ : sim_->Now();
  for (size_t i = 0; i < queue_.size(); ++i) {
    t += queue_[i].duration;
  }
  return t;
}

}  // namespace bsched
