#include "src/fault/fault_injector.h"

#include <cmath>

#include "src/common/check.h"

namespace bsched {

std::string FaultStats::DebugString() const {
  return "faults[injected: msgs=" + std::to_string(messages_seen) +
         " drops=" + std::to_string(drops_injected) +
         " delays=" + std::to_string(delays_injected) + " (" + delay_injected_total.ToString() +
         ") compute_slow=" + std::to_string(compute_slowdowns) +
         " shard_slow=" + std::to_string(shard_slowdowns) +
         " | recovered: timeouts=" + std::to_string(core_timeouts) +
         " retries=" + std::to_string(core_retries) +
         " late=" + std::to_string(core_late_completions) +
         " abandoned=" + std::to_string(core_abandoned) +
         " retransmits=" + std::to_string(backend_retransmits) +
         " credit_restored=" + FormatBytes(credit_restored) + "]";
}

namespace {

// "<kind> w<worker> L<layer>.p<partition> #<attempt>": one recovery instant.
std::string RecoveryName(const char* kind, int worker, int layer, int partition, int attempt) {
  return std::string(kind) + " w" + std::to_string(worker) + " L" + std::to_string(layer) + ".p" +
         std::to_string(partition) + " #" + std::to_string(attempt);
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlanConfig& config, Simulator* sim, TraceRecorder* trace)
    : plan_(config), sim_(sim), trace_(trace) {
  BSCHED_CHECK(sim_ != nullptr);
  if (trace_ == nullptr) {
    return;
  }
  for (const FaultEpisode& ep : plan_.episodes()) {
    trace_->AddSpan("faults/plan", ToString(ep.kind), ep.start, ep.end);
  }
}

FaultInjector::MessageFault FaultInjector::OnMessageSend(uint64_t site_hash) {
  const SimTime now = sim_->Now();
  ++stats_.messages_seen;
  const uint64_t msg_index = site_msg_counts_[site_hash]++;
  MessageFault fate;
  if (plan_.DropMessage(site_hash, msg_index, now)) {
    fate.drop = true;
    ++stats_.drops_injected;
    if (trace_ != nullptr) {
      trace_->AddInstant("faults/injected", "drop", now);
    }
    return fate;
  }
  fate.delay = plan_.ExtraLatency(site_hash, now);
  if (fate.delay.nanos() > 0) {
    ++stats_.delays_injected;
    stats_.delay_injected_total += fate.delay;
    if (trace_ != nullptr) {
      trace_->AddInstant("faults/injected", "delay+" + fate.delay.ToString(), now);
    }
  }
  return fate;
}

SimTime FaultInjector::ScaleCompute(int worker, SimTime duration) {
  const double factor = plan_.ComputeFactor(worker, sim_->Now());
  if (factor <= 1.0) {
    return duration;
  }
  ++stats_.compute_slowdowns;
  if (trace_ != nullptr) {
    trace_->AddInstant("faults/injected", "straggler w" + std::to_string(worker), sim_->Now());
  }
  return SimTime(static_cast<int64_t>(static_cast<double>(duration.nanos()) * factor));
}

SimTime FaultInjector::ScaleShard(int shard, SimTime duration) {
  const double factor = plan_.ShardFactor(shard, sim_->Now());
  if (factor <= 1.0) {
    return duration;
  }
  ++stats_.shard_slowdowns;
  if (trace_ != nullptr) {
    trace_->AddInstant("faults/injected", "shard_slow s" + std::to_string(shard), sim_->Now());
  }
  return SimTime(static_cast<int64_t>(static_cast<double>(duration.nanos()) * factor));
}

void FaultInjector::RecordCoreTimeout(int worker, int layer, int partition, int attempt,
                                      Bytes restored) {
  ++stats_.core_timeouts;
  stats_.credit_restored += restored;
  if (trace_ != nullptr) {
    trace_->AddInstant("faults/recovery", RecoveryName("timeout", worker, layer, partition, attempt),
                       sim_->Now());
  }
}

void FaultInjector::RecordCoreRetry() {
  ++stats_.core_retries;
}

void FaultInjector::RecordLateCompletion() {
  ++stats_.core_late_completions;
}

void FaultInjector::RecordAbandon() {
  ++stats_.core_abandoned;
}

void FaultInjector::RecordBackendRetransmit(int worker, int layer, int partition, int attempt) {
  ++stats_.backend_retransmits;
  if (trace_ != nullptr) {
    trace_->AddInstant("faults/recovery",
                       RecoveryName("retransmit", worker, layer, partition, attempt), sim_->Now());
  }
}

}  // namespace bsched
