#include "src/comm/allreduce_backend.h"

#include <cmath>
#include <string>

#include "src/common/check.h"
#include "src/common/trace.h"
#include "src/obs/metrics.h"

namespace bsched {

AllReduceConfig AllReduceConfig::Nccl(int num_workers, Bandwidth link_rate,
                                      const TransportModel& transport) {
  AllReduceConfig cfg;
  cfg.num_workers = num_workers;
  cfg.link_rate = link_rate;
  cfg.transport = transport;
  if (transport.name == "rdma") {
    cfg.launch_overhead = SimTime::Micros(100);
    cfg.step_latency = SimTime::Micros(3);
  } else if (transport.name == "tcp") {
    cfg.launch_overhead = SimTime::Micros(250);
    cfg.step_latency = SimTime::Micros(15);
  } else {
    cfg.launch_overhead = SimTime();
    cfg.step_latency = SimTime();
  }
  return cfg;
}

AllReduceBackend::AllReduceBackend(Simulator* sim, const AllReduceConfig& config)
    : sim_(sim), config_(config), ring_(std::make_unique<Resource>(sim)) {
  BSCHED_CHECK(sim_ != nullptr);
  BSCHED_CHECK(config_.num_workers >= 1);
  if (config_.faults != nullptr) {
    ring_site_hash_ = FaultPlan::HashSite("ring");
  }
}

SimTime AllReduceBackend::RingTime(Bytes bytes) const {
  const int w = config_.num_workers;
  if (w == 1) {
    return SimTime();
  }
  const Bandwidth rate = config_.transport.EffectiveRate(config_.link_rate);
  const double chunk = static_cast<double>(bytes) / w;
  const double step_sec =
      config_.step_latency.ToSeconds() + chunk / rate.bytes_per_sec();
  return SimTime::Seconds(2.0 * (w - 1) * step_sec);
}

void AllReduceBackend::StartFlight(const Flight& flight) {
  const SubCommTask& subtask = flight.subtask;
  BSCHED_CHECK(subtask.type == CommOpType::kAllReduce);
  // Optional negotiation quantization: the operation is agreed upon by all
  // workers only at the next coordination-cycle boundary.
  SimTime wait;
  if (config_.nego_cycle.nanos() > 0) {
    const int64_t cycle = config_.nego_cycle.nanos();
    const int64_t now = sim_->Now().nanos();
    wait = SimTime(((now + cycle - 1) / cycle) * cycle - now);
  }
  if (config_.faults != nullptr) {
    const FaultInjector::MessageFault fate = config_.faults->OnMessageSend(ring_site_hash_);
    if (fate.drop) {
      // The collective launch is lost (e.g. a worker missed the negotiation);
      // the master Core's timeout recovery relaunches the operation.
      return;
    }
    wait += fate.delay;
  }
  // The launch/negotiation phase runs host-side, concurrently with whatever
  // the ring is currently transferring; the ring pass itself serializes.
  const RingOp op{subtask.bytes, subtask.layer, subtask.partition, subtask.flow};
  auto launch = [this, op, done = flight.done] {
    if (config_.trace != nullptr) {
      ring_ops_.push_back(op);
    }
    ring_->Submit(RingTime(op.bytes), [this, done] {
      if (config_.trace != nullptr) {
        RecordRingSpan();
      }
      done();
    });
  };
  static_assert(EventFn::StorageOf<decltype(launch)>() == EventFn::Storage::kTrivial,
                "the launch is stored inline");
  sim_->Schedule(wait + config_.launch_overhead, launch);
}

void AllReduceBackend::RecordRingSpan() {
  const RingOp op = ring_ops_.pop_front();
  const SimTime end = sim_->Now();
  TraceRecorder* trace = config_.trace;
  trace->AddSpan("ring", "L" + std::to_string(op.layer) + ".p" + std::to_string(op.partition),
                 end - RingTime(op.bytes), end,
                 {TraceArg::Int("bytes", op.bytes), TraceArg::Int("layer", op.layer)});
  if (op.flow != 0) {
    trace->AddFlow("ring", "ring_done", end, op.flow, FlowPhase::kStep);
  }
}

void AllReduceBackend::ExportMetrics() {
  if (config_.metrics == nullptr) {
    return;
  }
  MetricsRegistry* m = config_.metrics;
  m->gauge("ring.busy_ns")->Set(ring_->busy_time().nanos());
  m->counter("ring.ops")->Inc(ops_completed());
}

}  // namespace bsched
