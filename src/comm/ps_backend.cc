#include "src/comm/ps_backend.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/trace.h"
#include "src/obs/metrics.h"

namespace bsched {
namespace {

std::string PartName(int64_t tensor, int partition) {
  return "t" + std::to_string(tensor) + ".p" + std::to_string(partition);
}

}  // namespace

PsBackend::PsBackend(Simulator* sim, const PsConfig& config) : sim_(sim), config_(config) {
  BSCHED_CHECK(sim_ != nullptr);
  BSCHED_CHECK(config_.num_workers > 0);
  BSCHED_CHECK(config_.num_shards > 0);
  // A hop names its worker and shard in 16 bits.
  BSCHED_CHECK(config_.num_workers <= UINT16_MAX + 1 && config_.num_shards <= UINT16_MAX + 1);
  TransportModel receiver = config_.transport;
  receiver.serial_overhead = SimTime();
  receiver.latency = SimTime();
  const int workers = config_.num_workers;
  const int shards = config_.num_shards;
  links_.resize(2 * static_cast<size_t>(workers + shards));
  for (int w = 0; w < workers; ++w) {
    const std::string name = "worker" + std::to_string(w);
    links_[w] = std::make_unique<Link>(sim_, name + ".up", config_.link_rate, config_.transport);
    links_[workers + w] = std::make_unique<Link>(sim_, name + ".down", config_.link_rate, receiver);
  }
  tail_flight_.assign(static_cast<size_t>(workers), kNone);
  push_trace_.resize(static_cast<size_t>(workers));
  for (int s = 0; s < shards; ++s) {
    const std::string name = "shard" + std::to_string(s);
    links_[2 * workers + s] =
        std::make_unique<Link>(sim_, name + ".in", config_.link_rate, receiver);
    links_[2 * workers + shards + s] =
        std::make_unique<Link>(sim_, name + ".out", config_.link_rate, config_.transport);
    shard_cpus_.push_back(std::make_unique<Resource>(sim_));
  }
  // Every flight's token is its hop; each link role lands it on its next step.
  // An uplink entry's token is a PushFlight, which names each partition by
  // its hop at the head of the queue.
  for (int w = 0; w < workers; ++w) {
    worker_uplink(w).SetFlightHandlers(
        [this](uint32_t hop) { OnPushFlushed(hop); },
        [this](uint32_t hop, SimTime wire) { Land(hop, wire, &PsBackend::OnPushAtShard); },
        [this](uint32_t flight) { return OnPushAtHead(flight); });
    worker_downlink(w).SetFlightHandlers(nullptr, [this](uint32_t hop, SimTime wire) {
      Land(hop, wire, &PsBackend::OnPullLanded);
    });
  }
  for (int s = 0; s < shards; ++s) {
    ingress(s)->SetFlightHandlers(nullptr, [this](uint32_t hop, SimTime wire) {
      Land(hop, wire, &PsBackend::OnPushArrived);
    });
    egress(s)->SetFlightHandlers(nullptr, [this](uint32_t hop, SimTime wire) {
      Land(hop, wire, &PsBackend::OnPullAtWorker);
    });
  }
  const NetDynamicsConfig* dyn =
      config_.dynamics != nullptr && config_.dynamics->enabled() ? config_.dynamics : nullptr;
  for (size_t i = 0; i < links_.size(); ++i) {
    Link& link = *links_[i];
    if (config_.faults != nullptr) link.SetFaultInjector(config_.faults);
    if (config_.metrics != nullptr) link.SetMetrics(config_.metrics);
    // Each link's schedule is keyed on its stable name; the asymmetric
    // down_scale derates the worker receive direction.
    if (dyn != nullptr) {
      const bool down = i >= static_cast<size_t>(workers) && i < 2 * static_cast<size_t>(workers);
      link.SetRateModel(BuildLinkRateModel(*dyn, link.name(), down));
    }
  }
  if (dyn != nullptr && dyn->aimd.enable) {
    for (int w = 0; w < workers; ++w) {
      rate_ctrl_.push_back(std::make_unique<RateController>(&worker_uplink(w)));
    }
  }
}

uint64_t PsBackend::link_repaces() const {
  uint64_t total = 0;
  for (const auto& link : links_) total += link->repace_events();
  return total;
}

uint64_t PsBackend::peak_link_entries() const {
  uint64_t total = 0;
  for (const auto& link : links_) total += link->peak_queue_entries();
  return total;
}

uint32_t PsBackend::SlotIndex::Get(int64_t tensor_id, int partition) {
  const auto [it, added] = tensors_.try_emplace(tensor_id, static_cast<uint32_t>(parts_.size()));
  if (added) {
    parts_.emplace_back();
  }
  std::vector<uint32_t>& row = parts_[it->second];
  if (static_cast<size_t>(partition) >= row.size()) {
    row.resize(static_cast<size_t>(partition) + 1, kNone);
  }
  if (row[partition] == kNone) {
    row[partition] = size_++;
  }
  return row[partition];
}

uint32_t PsBackend::Slot(int64_t tensor_id, int partition) {
  const uint32_t slot = slots_.Get(tensor_id, partition);
  if (slot == aggregated_.size()) {
    aggregated_.push_back(0);
    arrivals_.push_back(0);
    pending_head_.push_back(kNone);
    pending_tail_.push_back(kNone);
    if (config_.faults != nullptr) {
      push_rounds_.resize(push_rounds_.size() + config_.num_workers);
      accepted_round_.resize(accepted_round_.size() + config_.num_workers, 0);
      acks_.resize(acks_.size() + config_.num_workers);
    }
  }
  return slot;
}

uint32_t PsBackend::NewHop(uint32_t slot, const Leg& leg, const HopTrace& trace) {
  const uint32_t hop = hops_.Acquire();
  hops_[hop].leg = leg;
  hops_[hop].slot = slot;
  if (config_.trace != nullptr) {
    if (hop >= hop_trace_.size()) {
      hop_trace_.resize(hops_.size());
    }
    hop_trace_[hop] = trace;
  }
  return hop;
}

void PsBackend::FreeHop(uint32_t hop) {
  Hop& h = hops_[hop];
  h.done = Flight::Done{};
  h.next = kNone;
  hops_.Release(hop);
}

void PsBackend::Land(uint32_t hop, SimTime wire, HopStep step) {
  if (wire == Link::kDropped) {
    // Lost on the wire: a push's ack timer retransmits it, a pull's Core
    // retry timer re-requests it.
    FreeHop(hop);
  } else {
    Forward(wire, hop, step);
  }
}

void PsBackend::Forward(SimTime delay, uint32_t hop, HopStep step) {
  // A zero wire flight runs inline, like Link::Send's delivery.
  if (delay.nanos() == 0) {
    (this->*step)(hop);
  } else {
    sim_->Schedule(delay, [this, hop, step] { (this->*step)(hop); });
  }
}

int PsBackend::ShardFor(int64_t tensor_id, int partition) const {
  // Round-robin by tensor; partitions of one tensor stripe across shards.
  // Unpartitioned tensors (single partition 0) land whole on one shard,
  // reproducing the vanilla assignment and its imbalance on skewed models.
  return static_cast<int>((tensor_id + partition) % config_.num_shards);
}

PsBackend::Leg PsBackend::LegOf(const SubCommTask& subtask) const {
  BSCHED_CHECK(subtask.worker >= 0 && subtask.worker < config_.num_workers);
  BSCHED_CHECK(subtask.bytes >= 0 && subtask.bytes <= UINT32_MAX &&
               "a PS hop carries at most 4 GiB");
  BSCHED_CHECK(subtask.tensor_id >= 0 && subtask.tensor_id <= UINT32_MAX &&
               "a PS hop's tensor id is 32 bits");
  Leg leg;
  leg.bytes = static_cast<uint32_t>(subtask.bytes);
  leg.tensor = static_cast<uint32_t>(subtask.tensor_id);
  leg.partition = subtask.partition;
  leg.layer = subtask.layer;
  leg.worker = static_cast<uint16_t>(subtask.worker);
  leg.shard = static_cast<uint16_t>(ShardFor(subtask.tensor_id, subtask.partition));
  return leg;
}

void PsBackend::StartFlight(const Flight& flight) {
  const SubCommTask& subtask = flight.subtask;
  BSCHED_CHECK(subtask.type != CommOpType::kAllReduce &&
               "PS backend cannot execute all-reduce tasks");
  const Leg leg = LegOf(subtask);
  if (subtask.type == CommOpType::kPull) {
    const uint32_t hop = NewHop(Slot(subtask.tensor_id, subtask.partition), leg,
                                HopTrace{subtask.flow, sim_->Now(), SimTime()});
    hops_[hop].done = flight.done;
    // Pull request reaches the shard after a control-message latency.
    Forward(config_.control_latency, hop, &PsBackend::OnPullRequest);
    return;
  }
  uint32_t& tail = tail_flight_[leg.worker];
  if (tail != kNone) {
    // A flight that continues the PushFlight at the tail of the uplink (the
    // same task's next partition, completing under the next tag, behind
    // full-size partitions) extends it instead of queueing a new one, so a
    // task's waiting partitions hold no per-partition state.
    PushFlight& pf = flights_[tail];
    const uint32_t next_tag = pf.done.tag + static_cast<uint32_t>(pf.count);
    const int next_partition = pf.leg.partition - pf.next + pf.count;
    if (pf.done.owner == flight.done.owner && pf.done.id == flight.done.id &&
        next_tag == flight.done.tag && pf.task == subtask.task &&
        next_partition == leg.partition && pf.last_bytes == pf.leg.bytes) {
      ++pf.count;
      pf.last_bytes = leg.bytes;
      SendPush(leg, tail, subtask.flow);
      return;
    }
  }
  tail = flights_.Acquire();
  flights_[tail] = PushFlight{flight.done, subtask.task, leg, leg.bytes, 0, 1};
  SendPush(leg, tail, subtask.flow);
}

void PsBackend::SendPush(const Leg& leg, uint32_t flight, uint64_t flow) {
  // Queued first: an idle uplink reaches OnPushAtHead inside SendFlight.
  if (config_.trace != nullptr) {
    push_trace_[leg.worker].push_back(HopTrace{flow, sim_->Now(), SimTime()});
  }
  worker_uplink(leg.worker).SendFlight(leg.bytes, flight);
}

uint32_t PsBackend::OnPushAtHead(uint32_t flight) {
  PushFlight& pf = flights_[flight];
  Leg leg = pf.leg;
  if (pf.next == pf.count - 1) {
    leg.bytes = pf.last_bytes;
  }
  leg.shard = static_cast<uint16_t>(ShardFor(leg.tensor, leg.partition));
  const uint32_t slot = Slot(leg.tensor, leg.partition);
  const bool retransmit = pf.done.owner == nullptr;
  if (config_.faults != nullptr && !retransmit) {
    // Aggregation round for this slot from this worker: the data leg and
    // any retransmits of it all carry this round number, letting the shard
    // drop a stale duplicate whose original also made it through. A fresh
    // push task opens a new round; a Core-level retry re-enters with the
    // *same* task id and must stay in its round, or its duplicate copy would
    // count as a phantom arrival in the next one.
    PushRound& prev = push_rounds_[SlotWorker(slot, leg.worker)];
    if (prev.task != pf.task || prev.round == 0) {
      BSCHED_CHECK(prev.round < UINT32_MAX);
      prev.task = pf.task;
      ++prev.round;
    }
    leg.round = prev.round;
  }
  const HopTrace t = config_.trace != nullptr ? push_trace_[leg.worker].pop_front() : HopTrace{};
  const uint32_t hop = NewHop(slot, leg, t);
  if (!retransmit) {
    hops_[hop].done = pf.done;
    hops_[hop].done.tag += static_cast<uint32_t>(pf.next);
  }
  ++pf.leg.partition;
  if (++pf.next == pf.count) {
    if (tail_flight_[leg.worker] == flight) {
      tail_flight_[leg.worker] = kNone;
    }
    flights_.Release(flight);
  }
  return hop;
}

void PsBackend::OnPushFlushed(uint32_t hop) {
  // Sender-side completion (the stack flushed the partition): this is what
  // returns scheduler credit, after a small completion latency. From here the
  // data leg is the backend's responsibility; with faults enabled an ack
  // timer guarantees it eventually reaches the shard. A retransmitted leg
  // has no completion: its timer is already armed and its span unrecorded.
  Hop& h = hops_[hop];
  if (h.done.owner == nullptr) {
    return;
  }
  const Leg& leg = h.leg;
  uint64_t flow = 0;
  if (config_.trace != nullptr) {
    const HopTrace& t = hop_trace_[hop];
    flow = t.flow;
    const std::string track = "net/worker" + std::to_string(leg.worker) + ".up";
    TraceRecorder* trace = config_.trace;
    trace->AddSpan(track, PartName(leg.tensor, leg.partition) + ".push", t.submit, sim_->Now(),
                   {TraceArg::Int("bytes", leg.bytes), TraceArg::Int("layer", leg.layer),
                    TraceArg::Int("shard", leg.shard)});
    if (flow != 0) {
      trace->AddFlow(track, "flush", sim_->Now(), flow, FlowPhase::kStep);
    }
  }
  if (config_.faults != nullptr) {
    ArmPushAckTimer(h.slot, leg, flow, /*attempt=*/0);
  }
  sim_->Schedule(config_.control_latency, h.done);
}

void PsBackend::OnPushAtShard(uint32_t hop) {
  // Store-and-forward: after the wire flight the partition serializes into
  // the shard NIC, where copies from all workers contend.
  const Leg& leg = hops_[hop].leg;
  ingress(leg.shard)->SendFlight(leg.bytes, hop);
}

void PsBackend::ArmPushAckTimer(uint32_t slot, const Leg& leg, uint64_t flow, int attempt) {
  const int worker = leg.worker;
  PendingAck& ack = acks_[SlotWorker(slot, worker)];
  // Supersede a stale timer left by a previous aggregation round of the same
  // (tensor, partition, worker) slot (async mode reuses slots freely).
  ack.timer.Cancel();
  ack.leg = leg;
  ack.flow = flow;
  ack.attempt = attempt;
  ack.armed = true;
  const FaultPlanConfig& policy = config_.faults->config();
  const SimTime timeout = BackoffTimeout(policy.retry_timeout, policy.retry_backoff, attempt);
  ack.timer = sim_->Schedule(timeout, [this, slot, worker] { OnAckTimeout(slot, worker); });
}

void PsBackend::OnAckTimeout(uint32_t slot, int worker) {
  PendingAck& ack = acks_[SlotWorker(slot, worker)];
  ack.armed = false;
  const Leg leg = ack.leg;
  const uint64_t flow = ack.flow;
  const int attempt = ack.attempt;
  BSCHED_CHECK(attempt < config_.faults->config().max_retries &&
               "push data leg exhausted its retransmit budget");
  ++push_retransmits_;
  config_.faults->RecordBackendRetransmit(worker, leg.layer, leg.partition, attempt + 1);
  if (!rate_ctrl_.empty()) {
    // Loss signal: the data leg timed out, so back off this worker's
    // uplink before spending bandwidth on the retransmit.
    rate_ctrl_[worker]->OnLoss();
  }
  ArmPushAckTimer(slot, leg, flow, attempt + 1);
  // The retransmit re-occupies the uplink (a resend spends real bandwidth)
  // as a flight of one with no completion: credit was already returned.
  const uint32_t f = flights_.Acquire();
  flights_[f] = PushFlight{Flight::Done{}, kInvalidCommTask, leg, leg.bytes, 0, 1};
  tail_flight_[worker] = f;
  SendPush(leg, f, flow);
}

void PsBackend::CancelPushAck(uint32_t slot, int worker) {
  PendingAck& ack = acks_[SlotWorker(slot, worker)];
  if (!ack.armed) {
    return;
  }
  ack.timer.Cancel();
  ack.armed = false;
  // Clean ack: recover the uplink's pacing.
  if (!rate_ctrl_.empty()) {
    rate_ctrl_[worker]->OnAck();
  }
}

SimTime PsBackend::ScaledUpdateTime(int shard, Bytes bytes) const {
  const SimTime update_time =
      SimTime::Seconds(static_cast<double>(bytes) / config_.update_bytes_per_sec) +
      config_.update_fixed_overhead;
  if (config_.faults != nullptr) {
    return config_.faults->ScaleShard(shard, update_time);
  }
  return update_time;
}

// Records the shard-CPU update execution window of push `hop`. Called from
// the update's completion callback, so the window is [now - update_time, now]
// (the shard CPU is a FIFO resource: the job ran contiguously and just
// ended).
void PsBackend::RecordUpdateSpan(uint32_t hop) {
  if (config_.trace == nullptr) {
    return;
  }
  const Leg& leg = hops_[hop].leg;
  const HopTrace& t = hop_trace_[hop];
  const std::string track = "ps/shard" + std::to_string(leg.shard);
  const SimTime end = sim_->Now();
  TraceRecorder* trace = config_.trace;
  trace->AddSpan(track, PartName(leg.tensor, leg.partition) + ".update", end - t.update_time,
                 end, {TraceArg::Int("shard", leg.shard)});
  if (t.flow != 0) {
    trace->AddFlow(track, "update", end, t.flow, FlowPhase::kStep);
  }
}

void PsBackend::OnPushArrived(uint32_t hop) {
  const Hop& h = hops_[hop];
  const Leg& leg = h.leg;
  const uint32_t slot = h.slot;
  const int worker = leg.worker;
  const int shard = leg.shard;
  if (config_.faults != nullptr) {
    // Round guard: drop a copy whose round was already counted — its ack
    // timer fired while the original was merely slow (long outage window or
    // a heavily derated volatile link) and both copies arrived. Counting it
    // would seed the slot's *next* aggregation round with a phantom arrival.
    // Checked before the ack-cancel below: any pending timer now belongs to
    // a newer round and must keep running. Only a FaultInjector creates
    // duplicate copies.
    //
    // Known abort (not fixed here; a fix changes the fault-injected
    // fingerprints): a Core retry of a push re-enters with the same task, so
    // it keeps the round, and when it flushes after that round was accepted
    // here it arms a fresh ack timer. Its copies then arrive as stale and
    // return below, before the ack-cancel, so that timer is never cancelled:
    // it retransmits, each retransmit is dropped here again, and the retry
    // budget runs out at the CHECK in OnAckTimeout ("push data leg exhausted
    // its retransmit budget").
    uint32_t& accepted = accepted_round_[SlotWorker(slot, worker)];
    if (leg.round <= accepted) {
      ++stale_push_drops_;
      FreeHop(hop);
      return;
    }
    accepted = leg.round;
    CancelPushAck(slot, worker);
  }
  const SimTime update_time = ScaledUpdateTime(shard, leg.bytes);
  if (config_.trace != nullptr) {
    HopTrace& t = hop_trace_[hop];
    if (t.flow != 0) {
      config_.trace->AddFlow("ps/shard" + std::to_string(shard), "arrive", sim_->Now(), t.flow,
                             FlowPhase::kStep);
    }
    t.update_time = update_time;
  }
  if (config_.synchronous) {
    // A plain count: the round guard above already dropped every duplicate
    // copy, and a worker's next round on this slot starts only after the
    // slot aggregates, so each worker arrives at most once per round.
    if (++arrivals_[slot] < config_.num_workers) {
      FreeHop(hop);
      return;
    }
    arrivals_[slot] = 0;
  }
  // Sync: all workers' gradients for this partition arrived. Async: apply
  // each worker's gradient on arrival; parameters become pullable after the
  // first update. Either way run the update, then release any pulls that
  // were admitted early.
  shard_cpus_[shard]->Submit(update_time, [this, hop] { OnUpdated(hop); });
}

void PsBackend::OnUpdated(uint32_t hop) {
  const Hop& h = hops_[hop];
  const uint32_t slot = h.slot;
  const int64_t tensor = h.leg.tensor;
  const int partition = h.leg.partition;
  const uint32_t bytes = h.leg.bytes;
  RecordUpdateSpan(hop);
  FreeHop(hop);
  aggregated_[slot] = 1;
  uint32_t pull = pending_head_[slot];
  pending_head_[slot] = kNone;
  pending_tail_[slot] = kNone;
  while (pull != kNone) {
    Hop& p = hops_[pull];
    const uint32_t next = p.next;
    p.next = kNone;
    p.leg.bytes = bytes;
    DeliverPull(pull);
    pull = next;
  }
  if (!config_.synchronous || listeners_.empty()) {
    return;
  }
  if (!config_.delayed_notify) {
    // Listener-major, worker-minor: matches the legacy order, where each
    // single listener looped workers 0..N-1 internally.
    for (const auto& listener : listeners_) {
      for (int w = 0; w < config_.num_workers; ++w) {
        listener(tensor, partition, w);
      }
    }
    return;
  }
  // Delayed: one shard -> worker control message per worker, each running
  // that worker's listeners.
  for (int w = 0; w < config_.num_workers; ++w) {
    sim_->Schedule(config_.control_latency, [this, tensor, partition, w] {
      for (const auto& listener : listeners_) {
        listener(tensor, partition, w);
      }
    });
  }
}

void PsBackend::OnPullRequest(uint32_t hop) {
  const uint32_t slot = hops_[hop].slot;
  if (!aggregated_[slot]) {
    if (pending_tail_[slot] == kNone) {
      pending_head_[slot] = hop;
    } else {
      hops_[pending_tail_[slot]].next = hop;
    }
    pending_tail_[slot] = hop;
    return;
  }
  DeliverPull(hop);
}

void PsBackend::DeliverPull(uint32_t hop) {
  if (config_.trace != nullptr) {
    // The pull span runs from here to the landing at the worker (after
    // egress + downlink serialization).
    hop_trace_[hop].submit = sim_->Now();
  }
  const Leg& leg = hops_[hop].leg;
  egress(leg.shard)->SendFlight(leg.bytes, hop);
}

void PsBackend::OnPullAtWorker(uint32_t hop) {
  const Leg& leg = hops_[hop].leg;
  worker_downlink(leg.worker).SendFlight(leg.bytes, hop);
}

void PsBackend::OnPullLanded(uint32_t hop) {
  Hop& h = hops_[hop];
  if (config_.trace != nullptr) {
    const Leg& leg = h.leg;
    const HopTrace& t = hop_trace_[hop];
    const std::string track = "net/worker" + std::to_string(leg.worker) + ".down";
    config_.trace->AddSpan(track, PartName(leg.tensor, leg.partition) + ".pull", t.submit,
                           sim_->Now(), {TraceArg::Int("bytes", leg.bytes)});
    if (t.flow != 0) {
      config_.trace->AddFlow(track, "deliver", sim_->Now(), t.flow, FlowPhase::kStep);
    }
  }
  const Flight::Done done = h.done;
  FreeHop(hop);
  done();
}

Bytes PsBackend::shard_bytes_in(int shard) const {
  BSCHED_CHECK(shard >= 0 && shard < config_.num_shards);
  return ingress(shard)->bytes_sent();
}

Bytes PsBackend::shard_bytes_out(int shard) const {
  BSCHED_CHECK(shard >= 0 && shard < config_.num_shards);
  return egress(shard)->bytes_sent();
}

double PsBackend::ShardLoadImbalance() const {
  Bytes max_out = 0;
  Bytes total = 0;
  for (int s = 0; s < config_.num_shards; ++s) {
    max_out = std::max(max_out, shard_bytes_out(s));
    total += shard_bytes_out(s);
  }
  if (total == 0) {
    return 1.0;
  }
  const double mean = static_cast<double>(total) / config_.num_shards;
  return static_cast<double>(max_out) / mean;
}

void PsBackend::ExportMetrics() {
  if (config_.metrics == nullptr) {
    return;
  }
  for (auto& link : links_) link->ExportMetrics();
  MetricsRegistry* m = config_.metrics;
  for (int s = 0; s < config_.num_shards; ++s) {
    const std::string prefix = "ps.shard" + std::to_string(s);
    m->gauge(prefix + ".bytes_in")->Set(shard_bytes_in(s));
    m->gauge(prefix + ".bytes_out")->Set(shard_bytes_out(s));
    m->gauge(prefix + ".cpu_busy_ns")->Set(shard_cpus_[s]->busy_time().nanos());
  }
  m->counter("ps.push_retransmits")->Inc(push_retransmits());
  // Always exported (zero without dynamics) so the metric key set is stable
  // across configurations, like the fault.* counters.
  m->counter("net.rate_ctrl.decreases")->Inc(rate_ctrl_decreases());
  m->counter("net.rate_ctrl.increases")->Inc(rate_ctrl_increases());
  m->counter("net.link_repaces")->Inc(link_repaces());
  m->counter("net.stale_push_drops")->Inc(stale_push_drops());
}

std::string PsBackend::DebugString() const {
  int pending_pulls = 0;
  int waiting_slots = 0;
  for (size_t slot = 0; slot < arrivals_.size(); ++slot) {
    for (uint32_t pull = pending_head_[slot]; pull != kNone; pull = hops_[pull].next) {
      ++pending_pulls;
    }
    if (arrivals_[slot] > 0) {
      ++waiting_slots;
    }
  }
  std::string out = "ps pending_pulls=" + std::to_string(pending_pulls) +
                    " slots_awaiting_arrivals=" + std::to_string(waiting_slots);
  if (config_.faults != nullptr) {
    size_t unacked = 0;
    for (const PendingAck& ack : acks_) {
      unacked += ack.armed ? 1 : 0;
    }
    out += " unacked_pushes=" + std::to_string(unacked) +
           " retransmits=" + std::to_string(push_retransmits());
  }
  return out;
}

}  // namespace bsched
