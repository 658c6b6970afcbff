#include "src/net/link.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/obs/metrics.h"

namespace bsched {

Link::Link(Simulator* sim, std::string name, Bandwidth line_rate, const TransportModel& transport)
    : sim_(sim), line_rate_(line_rate), transport_(transport), name_(std::move(name)) {
  BSCHED_CHECK(sim_ != nullptr);
  // With every schedule and controller scale positive too, Rate() is never 0,
  // so a transfer always finishes.
  BSCHED_CHECK(line_rate_.bytes_per_sec() > 0.0 && transport_.efficiency > 0.0 &&
               transport_.goodput_cap.bytes_per_sec() > 0.0 && "a link needs a positive rate");
}

void Link::Send(Bytes size, std::function<void()> on_delivered) {
  const uint32_t token = callbacks_.Acquire();
  callbacks_[token] = std::move(on_delivered);
  Enqueue(Msg{size, token});
}

void Link::SetFaultInjector(FaultInjector* faults) {
  faults_ = faults;
  site_hash_ = FaultPlan::HashSite(name_);
}

void Link::SetMetrics(MetricsRegistry* metrics) {
  BSCHED_CHECK(bytes_sent_ == 0 && !busy_ && "attach metrics before any traffic");
  metrics_ = metrics;
  if (metrics == nullptr) {
    m_bytes_ = nullptr;
    m_msgs_ = nullptr;
    m_queue_ns_ = nullptr;
    m_inflight_ = nullptr;
    return;
  }
  const std::string prefix = "net." + name_;
  m_bytes_ = metrics->counter(prefix + ".bytes");
  m_msgs_ = metrics->counter(prefix + ".msgs");
  m_queue_ns_ = metrics->histogram(prefix + ".queue_ns");
  m_inflight_ = metrics->gauge(prefix + ".inflight_bytes");
}

void Link::ExportMetrics() {
  if (metrics_ == nullptr) {
    return;
  }
  metrics_->gauge("net." + name_ + ".busy_ns")->Set(busy_time().nanos());
}

void Link::SetFlightHandlers(std::function<void(uint32_t)> on_flushed,
                             std::function<void(uint32_t, SimTime)> deliver,
                             std::function<uint32_t(uint32_t)> on_head) {
  on_flushed_ = std::move(on_flushed);
  deliver_ = std::move(deliver);
  on_head_ = std::move(on_head);
}

void Link::SendFlight(Bytes size, uint32_t token) { Enqueue(Msg{size, token, 1, 1}); }

void Link::Enqueue(Msg msg) {
  const Bytes size = msg.size;
  bytes_sent_ += size;
  ++waiting_;
  if (m_bytes_ != nullptr) {
    m_bytes_->Inc(static_cast<uint64_t>(size));
    m_msgs_->Inc();
    // Sender-side queueing delay this message will experience behind the
    // work already on the wire. Passive: reads drain state, schedules nothing.
    m_queue_ns_->Observe((DrainTime() - sim_->Now()).nanos());
    m_inflight_->Add(size);
    waiting_time_ += MessageTime(size);
  }
  if (msg.flight && !msgs_.empty() && msgs_.back().token == msg.token &&
      msgs_.back().flight && msgs_.back().size == size &&
      msgs_.back().count < kMaxRun) {
    // The next message of the tail entry's run: extend it.
    ++msgs_.back().count;
  } else {
    msgs_.push_back(msg);
    peak_entries_ = std::max(peak_entries_, msgs_.size());
  }
  if (!busy_) {
    StartNext();
  }
}

void Link::StartNext() {
  BSCHED_DCHECK(!busy_);
  if (msgs_.empty()) {
    return;
  }
  const Msg msg = msgs_.front();
  --waiting_;
  if (m_bytes_ != nullptr) {
    waiting_time_ = waiting_time_ - MessageTime(msg.size);
  }
  current_token_ = msg.flight && on_head_ != nullptr ? on_head_(msg.token) : msg.token;
  busy_ = true;
  busy_since_ = sim_->Now();
  remaining_ = static_cast<double>(msg.size);
  anchor_ = sim_->Now() + transport_.serial_overhead;
  ScheduleCompletion();
}

void Link::OnSent() {
  busy_ = false;
  busy_time_ += sim_->Now() - busy_since_;
  ++msgs_done_;
  // Completion callbacks run before the next message starts, mirroring
  // Resource::OnJobDone (the ACK handler fires before the NIC pulls the next
  // WQE). A callback may submit new traffic, which starts itself.
  FinishSend();
  if (!busy_ && !msgs_.empty()) {
    StartNext();
  }
}

void Link::FinishSend() {
  // Pop before running callbacks: they may send on this link again.
  Msg msg = msgs_.front();
  msg.token = current_token_;
  if (msg.count > 1) {
    --msgs_.front().count;
  } else {
    msgs_.pop_front();
  }
  // Flush == left the NIC queue; decrement here so fault drops (which
  // never deliver) still settle the gauge.
  if (m_inflight_ != nullptr) {
    m_inflight_->Add(-msg.size);
  }
  if (msg.flight && on_flushed_ != nullptr) {
    on_flushed_(msg.token);
  }
  std::function<void()> on_delivered;
  if (!msg.flight) {
    // Release the slot before delivering: the callback may Send again.
    on_delivered = std::move(callbacks_[msg.token]);
    callbacks_[msg.token] = nullptr;
    callbacks_.Release(msg.token);
    if (on_delivered == nullptr) {
      return;
    }
  } else if (deliver_ == nullptr) {
    return;
  }
  SimTime total = transport_.latency;
  if (faults_ != nullptr) {
    // Fault fate is decided at flush time: the sender's NIC accepted the
    // message, but the wire may lose or delay it. A link-down fault defers
    // delivery to the outage's end (FaultPlan::OutageDeferral), the one model
    // of an outage; a RateModel only derates a link, never to zero.
    const FaultInjector::MessageFault fate = faults_->OnMessageSend(site_hash_);
    if (fate.drop) {
      // Lost in the network; recovery retransmits. A Send's callback is
      // destroyed undelivered.
      if (msg.flight) {
        deliver_(msg.token, kDropped);
      }
      return;
    }
    total += fate.delay;
  }
  if (msg.flight) {
    deliver_(msg.token, total);
  } else if (total.nanos() == 0) {
    on_delivered();
  } else {
    // Delivery completes after the pipelined latency; the link itself is
    // already free for the next message.
    sim_->Schedule(total, std::move(on_delivered));
  }
}

// --- Rate integration -----------------------------------------------------

void Link::SetRateModel(RateModel model) {
  BSCHED_CHECK(bytes_sent_ == 0 && !busy_ &&
               "install the rate model before any traffic");
  model_ = std::move(model);
}

double Link::Rate(SimTime t) const {
  // Operation order matters: with unit schedule and controller scales this
  // must reduce to exactly EffectiveRate(line), i.e. line * efficiency.
  const double scale = model_.ScaleAt(t) * ctrl_scale_;
  return std::min(line_rate_.bytes_per_sec() * scale * transport_.efficiency,
                  transport_.goodput_cap.bytes_per_sec());
}

SimTime Link::FinishTime() const {
  double remaining = remaining_;
  SimTime t = anchor_;
  while (true) {
    const SimTime next = model_.NextChangeAfter(t);
    const double rate = Rate(t);
    // Same arithmetic as Bandwidth::TransmitTime so a flat schedule lands on
    // the nanosecond TransportModel::MessageTime predicts.
    const SimTime fin = t + SimTime(static_cast<int64_t>(std::llround(remaining / rate * 1e9)));
    if (next == SimTime::Max() || fin <= next) {
      return fin;
    }
    remaining -= rate * (next - t).ToSeconds();
    if (remaining < 0.0) remaining = 0.0;
    t = next;
  }
}

void Link::DrainUntil(SimTime until) {
  if (until <= anchor_) {
    return;  // still paying serial overhead; nothing serialized yet
  }
  SimTime t = anchor_;
  while (t < until) {
    const SimTime next = std::min(model_.NextChangeAfter(t), until);
    remaining_ -= Rate(t) * (next - t).ToSeconds();
    if (remaining_ < 0.0) remaining_ = 0.0;
    t = next;
  }
  anchor_ = until;
}

void Link::ScheduleCompletion() {
  current_end_ = FinishTime();
  completion_ = sim_->Schedule(current_end_ - sim_->Now(), [this] { OnSent(); });
}

void Link::SetCtrlScale(double scale) {
  BSCHED_CHECK(scale > 0.0);
  if (scale == ctrl_scale_) {
    return;
  }
  if (busy_) {
    // Settle bytes serialized under the old scale, then re-pace the rest.
    DrainUntil(sim_->Now());
    ctrl_scale_ = scale;
    completion_.Cancel();
    ++repaces_;
    ScheduleCompletion();
  } else {
    ctrl_scale_ = scale;
  }
}

double Link::CurrentRateBps() const { return Rate(sim_->Now()); }

}  // namespace bsched
