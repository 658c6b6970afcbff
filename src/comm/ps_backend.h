// Parameter-server backend (ps-lite-style). Workers push gradient partitions
// to shards and pull updated parameters back over full-duplex links; shards
// aggregate across workers and run the update. Tensor-to-shard assignment is
// round-robin by (layer + partition index): with unpartitioned tensors this
// reproduces the vanilla frameworks' per-tensor round-robin (and its severe
// load imbalance on skewed models, §6.2 "PS load balancing"); partitioned
// tensors stripe across all shards.
//
// Transmission path (store-and-forward at partition granularity):
//   push:  worker uplink (pays sender overhead) -> transport latency ->
//          shard ingress (serialization only) -> aggregation + update
//   pull:  request latency -> [wait until aggregated] -> shard egress (pays
//          sender overhead + latency) -> worker downlink (serialization only)
// Push completion for the scheduler is the *sender-side* flush plus a
// completion latency, as in ps-lite's engine callbacks. A stop-and-wait
// scheduler (P3) pays that per-partition gap serially and cannot fill the
// pipe; the credit mechanism (§4.2) keeps multiple partitions in flight.
//
// Fault tolerance: because a push reports success to the scheduler at sender
// flush, a gradient lost *after* the flush is invisible to the Core — so the
// backend itself guarantees worker->shard delivery. With a FaultInjector
// attached, every push data leg arms an ack timer keyed by (tensor,
// partition, worker); if the shard has not seen the copy when it fires, the
// leg is retransmitted with exponential backoff, under the timeout, backoff
// and retry budget of the injector's FaultPlanConfig, and exhausting the
// budget aborts the run. Every copy carries its push's aggregation round, and
// the shard drops a copy at or below the round it already accepted from that
// worker, so a retransmit racing a merely-delayed original is counted once.
// That round guard is the only duplicate filter: in synchronous training a
// worker's next round on a slot starts only after the slot aggregates, so a
// synchronous round counts each worker at most once. Accepting a copy
// cancels the worker's ack timer at once. Control messages are assumed
// reliable.
//
// State layout: every (tensor, partition) gets one backend-wide slot id from
// the backend's single SlotIndex, and the hop carries it to every step, so
// each hop looks its key up once. Per-slot state (aggregation flag, arrival
// count, pending-pull FIFO) lives in vectors indexed by slot; per-(slot,
// worker) state in vectors indexed by slot * num_workers + worker. That
// state exists only to recover from faults (the sender's push round, the
// shard's accepted round and the ack timer), so it is sized only with a
// FaultInjector: only an injector creates duplicate copies. Ids are never
// raw tensor ids: co-scheduled jobs offset theirs by 1 << 20.
//
// Pushes wait on the uplink as PushFlights: a run of one push task's
// consecutive partitions under one 64-byte record and one uplink entry (two
// when its last partition is shorter), without per-partition state. A push
// flight from the Core that continues the uplink's tail PushFlight (the same
// task's next partition, completing under the next tag) extends it, so the
// Core's one-partition admissions queue one entry per task, with or without
// a FaultInjector or a trace (a Core retry's tag carries its attempt in the
// high bits, so it continues only a run of retries of its own attempt). A
// partition's hop is built when the partition reaches the head of the uplink
// queue; a retransmitted leg is a PushFlight of one that carries its round.
// The uplink flushes in FIFO order, so building hops there moves no event.
// A pull gets its hop at StartFlight. A data leg or pull on its way is one
// pooled Hop record named by its index: one 64-byte cache line holding the
// completion, the Leg the hop steps read (size, tensor, partition, layer,
// worker, shard, round, narrowed to 32 and 16 bits and CHECKed at
// StartFlight), the leg's slot and the pending-pull link. Trace-only hop
// state (flow id, submit time, update time) lives in a side vector indexed
// by hop, sized only while tracing; a push's waits in a per-worker FIFO in
// uplink order until its hop is built. A link carries the hop
// index as its message token to flight handlers installed once per link
// role, and the shard CPU and Forward callbacks capture only {this, hop
// index}, which std::function and EventFn store inline, so a job's steady
// state allocates nothing here. A pull's hop lives until its downlink flight
// lands, where the landing step records the pull span and runs the
// completion.
//
// Observability: the backend writes the trace and metrics sinks in its
// config, each nullable; its links get only the metrics.
#ifndef SRC_COMM_PS_BACKEND_H_
#define SRC_COMM_PS_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/comm/backend.h"
#include "src/common/pool.h"
#include "src/fault/fault_injector.h"
#include "src/net/link.h"
#include "src/net/net_dynamics.h"
#include "src/net/rate_controller.h"
#include "src/net/transport.h"
#include "src/sim/fifo_ring.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace bsched {

class MetricsRegistry;
class TraceRecorder;

struct PsConfig {
  int num_workers = 1;
  int num_shards = 1;
  Bandwidth link_rate = Bandwidth::Gbps(100);
  TransportModel transport = TransportModel::Tcp();
  // Synchronous training: a partition becomes pullable once all workers'
  // copies arrived and the update ran. Asynchronous: pulls wait only for the
  // first update of their slot.
  bool synchronous = true;
  // Shard-side gradient update rate (summing + applying the optimizer).
  double update_bytes_per_sec = 20e9;
  // Fixed shard CPU cost per partition update (key lookup, op dispatch);
  // part of the per-partition overhead θ that penalizes tiny partitions.
  SimTime update_fixed_overhead = SimTime::Micros(25);
  // Latency of sender-side completion callbacks and pull-request control
  // messages.
  SimTime control_latency = SimTime::Micros(20);

  // Fault injection and push retransmission under its plan's recovery
  // policy (null disables both; the fault-free event sequence is then
  // byte-identical to a faultless build).
  FaultInjector* faults = nullptr;
  // Observability (each null disables its layer): trace spans and flow
  // steps on net/worker* and ps/shard* tracks; link, shard and retransmit
  // metrics. Instrumentation is passive — it never schedules events, so the
  // event sequence is unchanged.
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;

  // Dynamic-network fabric (null disables: every link keeps its identity
  // schedule and runs at its nominal rate). When enabled, every link gets a
  // deterministic RateModel keyed on (seed, link name), and worker uplinks
  // optionally get AIMD rate controllers fed by the push ack timers.
  const NetDynamicsConfig* dynamics = nullptr;

  // Delivers each worker's aggregation notification as a control message
  // control_latency after the update, one event per worker, instead of as a
  // synchronous call. fig15_volatility's recorded rows were produced in this
  // mode. The push-ack cancel is synchronous either way.
  bool delayed_notify = false;
};

class PsBackend : public CommBackend {
 public:
  // `sim` hosts every entity (links, shard CPUs, timers).
  PsBackend(Simulator* sim, const PsConfig& config);

  void Start(const SubCommTask& subtask, std::function<void()> on_finish) override {
    StartAsFlight(subtask, std::move(on_finish));
  }
  // A push flight joins the uplink's tail PushFlight when it continues it; a
  // pull flight gets its hop.
  void StartFlight(const Flight& flight) override;

  // Human-readable aggregation/pending state for diagnostics.
  std::string DebugString() const;

  // Synchronous mode: invoked once per worker whenever a (tensor, partition)
  // finishes aggregation (all workers' gradients arrived and the update ran).
  // Plugins use this server-side notification to make pull partitions ready —
  // a pull scheduled before its data exists would otherwise park inside the
  // stack while holding sender credit, which can deadlock credit-limited
  // schedulers across workers (each waiting for another's queued push).
  // Multiple listeners are supported (co-scheduled jobs sharing the backend).
  // Workers 0..N-1 are notified synchronously at aggregation time, or each
  // control_latency later in its own event under PsConfig::delayed_notify.
  void AddAggregationListener(
      std::function<void(int64_t tensor_id, int partition, int worker)> fn) {
    listeners_.push_back(std::move(fn));
  }

  // Load-balance introspection.
  Bytes shard_bytes_in(int shard) const;
  Bytes shard_bytes_out(int shard) const;
  // Max-over-mean shard egress load; 1.0 == perfectly balanced.
  double ShardLoadImbalance() const;

  Link& worker_uplink(int worker) { return *links_[worker]; }
  Link& worker_downlink(int worker) { return *links_[config_.num_workers + worker]; }

  // Retransmissions attempted for lost push data legs (0 without faults),
  // over all workers.
  uint64_t push_retransmits() const { return push_retransmits_; }

  // AIMD rate-control activity (0 without dynamics), summed over workers.
  uint64_t rate_ctrl_decreases() const {
    uint64_t total = 0;
    for (const auto& c : rate_ctrl_) total += c->decreases();
    return total;
  }
  uint64_t rate_ctrl_increases() const {
    uint64_t total = 0;
    for (const auto& c : rate_ctrl_) total += c->increases();
    return total;
  }
  // In-flight transfers re-paced by controller rate changes, over all links.
  uint64_t link_repaces() const;

  // Stale retransmitted push copies dropped at the shard because their round
  // was already counted (both the original and the retransmit arrived),
  // over all shards.
  uint64_t stale_push_drops() const { return stale_push_drops_; }

  // In-flight high-water marks: the most hops held at once, and the sum over
  // every link of its most queued entries.
  size_t peak_hops() const { return hops_.size(); }
  uint64_t peak_link_entries() const;

  // Exports end-of-run metrics (per-link busy time, per-shard bytes/CPU
  // time, retransmit count) into the metrics registry. No-op without one.
  void ExportMetrics();

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  // Compact ids for the (tensor, partition) slots the backend has touched,
  // assigned in first-touch order.
  class SlotIndex {
   public:
    // The slot's id; a new slot gets the next id (Slot grows the vectors).
    uint32_t Get(int64_t tensor_id, int partition);

   private:
    std::unordered_map<int64_t, uint32_t> tensors_;  // tensor id -> row of parts_
    std::vector<std::vector<uint32_t>> parts_;       // partition -> slot id
    uint32_t size_ = 0;
  };

  // What a hop carries and where: the fields the hop steps read. Narrowed
  // from SubCommTask; Start CHECKs that each value fits.
  struct Leg {
    uint32_t bytes = 0;   // push: partition size; pull: delivered size
    uint32_t tensor = 0;  // backend tensor id
    int32_t partition = 0;
    int32_t layer = 0;  // push: the fault ledger's and the trace's layer
    uint16_t worker = 0;
    uint16_t shard = 0;
    uint32_t round = 0;  // push: aggregation round (see push rounds below)
  };

  // One push data leg (first transmission or retransmit) or one pull, from
  // the worker's Start to the shard update or the pull delivery: one cache
  // line, so a pooled hop never straddles two.
  struct alignas(64) Hop {
    Flight::Done done;  // the completion; empty for retransmitted legs
    Leg leg;
    uint32_t slot = kNone;  // the leg's slot, set at Start
    uint32_t next = kNone;  // pending-pull FIFO link
  };
  static_assert(sizeof(Hop) == 64 && alignof(Hop) == 64, "a hop is one cache line");
  // Trace-only hop state, by hop index (sized only while tracing).
  struct HopTrace {
    uint64_t flow = 0;    // the partition's flow arc (0 = untracked)
    SimTime submit;       // push: start of its uplink span; pull: of its delivery
    SimTime update_time;  // push: shard update duration
  };
  // What a hop does next, on the entity it was forwarded to.
  using HopStep = void (PsBackend::*)(uint32_t hop);

  // Consecutive push partitions of one task, from their start until the
  // last reaches the head of the uplink: one cache line. `leg` is the next
  // partition's, except for its size and shard; every partition holds
  // leg.bytes except the last, which holds last_bytes.
  struct alignas(64) PushFlight {
    // Partition i completes as `done` with tag + i; empty for a
    // retransmitted leg, which carries its round in `leg`.
    Flight::Done done;
    CommTaskId task = kInvalidCommTask;  // the push task: its aggregation round
    Leg leg;
    uint32_t last_bytes = 0;
    int32_t next = 0;  // index of the partition next at the head
    int32_t count = 0;
  };
  static_assert(sizeof(PushFlight) == 64, "a push flight is one cache line");
  // Sender-side push round per (slot, worker), faults only: (last push task
  // id, round). A new task id is a new aggregation round; a repeated id is a
  // Core-level retry of the same push, which must keep its original round so
  // the shard can recognise duplicate copies. The round is taken when the
  // partition reaches the head of the uplink (the uplink is FIFO, so in
  // start order); it rides the data leg and all its retransmits and is
  // checked against the shard's accepted round.
  struct PushRound {
    CommTaskId task = kInvalidCommTask;
    uint32_t round = 0;
  };
  // The ack timer of a push data leg awaiting its shard arrival (faults
  // enabled only); a later arm for the slot supersedes it.
  struct PendingAck {
    EventHandle timer;
    Leg leg;
    uint64_t flow = 0;  // trace flow arc its retransmits carry
    int attempt = 0;
    bool armed = false;
  };
  void RecordUpdateSpan(uint32_t hop);
  int ShardFor(int64_t tensor_id, int partition) const;
  // The slot id of (tensor, partition), growing the slot vectors on first
  // touch.
  uint32_t Slot(int64_t tensor_id, int partition);
  // Index of (slot, worker) in the per-(slot, worker) vectors.
  size_t SlotWorker(uint32_t slot, int worker) const {
    return static_cast<size_t>(slot) * config_.num_workers + worker;
  }

  // A hop carrying `leg` of `slot`; while tracing, its trace state starts
  // as `trace`.
  uint32_t NewHop(uint32_t slot, const Leg& leg, const HopTrace& trace);
  void FreeHop(uint32_t hop);

  // The leg of `subtask`, CHECKing that each field fits.
  Leg LegOf(const SubCommTask& subtask) const;
  // Queues one push message on `leg.worker`'s uplink as `flight`; while
  // tracing, queues its flow and a start of now in uplink order too.
  void SendPush(const Leg& leg, uint32_t flight, uint64_t flow);
  // Hop steps, in path order. Push: head of the uplink -> uplink flush ->
  // ingress -> arrival -> shard update. Pull: request at the shard ->
  // egress -> downlink -> landing at the worker.
  // Builds the hop of push flight `flight`'s next partition and returns it.
  uint32_t OnPushAtHead(uint32_t flight);
  void OnPushFlushed(uint32_t hop);
  void OnPushAtShard(uint32_t hop);
  void OnPushArrived(uint32_t hop);
  void OnUpdated(uint32_t hop);
  void OnPullRequest(uint32_t hop);
  // Sends the pull's leg.bytes: the pull's own size on the direct path, the
  // aggregating push's size when replayed from the pending FIFO.
  void DeliverPull(uint32_t hop);
  void OnPullAtWorker(uint32_t hop);
  // The pull's data reached the worker: records its delivery span, frees
  // the hop and runs the completion.
  void OnPullLanded(uint32_t hop);

  void ArmPushAckTimer(uint32_t slot, const Leg& leg, uint64_t flow, int attempt);
  void OnAckTimeout(uint32_t slot, int worker);
  // The shard saw the slot's push from `worker`: stop its ack timer.
  void CancelPushAck(uint32_t slot, int worker);
  SimTime ScaledUpdateTime(int shard, Bytes bytes) const;
  Link* ingress(int shard) const { return links_[2 * config_.num_workers + shard].get(); }
  Link* egress(int shard) const {
    return links_[2 * config_.num_workers + config_.num_shards + shard].get();
  }
  // Runs `step` for `hop` `delay` from now (inline when delay is zero, as
  // Link::Send delivers a zero wire flight).
  void Forward(SimTime delay, uint32_t hop, HopStep step);
  // A link's flight delivery: forwards `hop` to `step` after the wire
  // flight, or frees it if the flight was dropped.
  void Land(uint32_t hop, SimTime wire, HopStep step);

  Simulator* sim_;
  PsConfig config_;
  // Every link, by role: worker uplinks (worker -> network), worker
  // downlinks (network -> worker), shard ingresses (network -> shard), shard
  // egresses (shard -> network). Sender-side links (uplinks, egresses) pay
  // the per-message overhead θ; receiver-side links model serialization into
  // the receiving NIC only.
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Resource>> shard_cpus_;

  SlotIndex slots_;
  // Per slot: aggregated since its first update; the workers whose gradient
  // copy arrived this aggregation round (synchronous mode); and the FIFO of
  // pull hops admitted before aggregation completed.
  std::vector<uint8_t> aggregated_;
  std::vector<int> arrivals_;
  std::vector<uint32_t> pending_head_;
  std::vector<uint32_t> pending_tail_;
  // Per (slot, worker), at SlotWorker, faults only: the sender's push round;
  // the highest round the shard accepted, so a copy at or below it is a
  // stale duplicate (its retransmit timer fired while the original was
  // merely slow, both copies arrived, and counting the second would pollute
  // the *next* aggregation round for this slot); and the ack timer.
  std::vector<PushRound> push_rounds_;
  std::vector<uint32_t> accepted_round_;
  std::vector<PendingAck> acks_;

  Pool<PushFlight> flights_;
  // Per worker: the push flight last queued on its uplink, while any of its
  // partitions waits (kNone otherwise).
  std::vector<uint32_t> tail_flight_;
  // Per worker: the trace state of each push on its uplink, in uplink order
  // (empty unless tracing).
  std::vector<FifoRing<HopTrace>> push_trace_;
  Pool<Hop> hops_;
  std::vector<HopTrace> hop_trace_;  // by hop; empty unless tracing
  std::vector<std::function<void(int64_t tensor_id, int partition, int worker)>> listeners_;
  uint64_t push_retransmits_ = 0;
  uint64_t stale_push_drops_ = 0;
  // Per-worker AIMD controllers on the uplinks (empty unless dynamics with
  // aimd.enable).
  std::vector<std::unique_ptr<RateController>> rate_ctrl_;
};

}  // namespace bsched

#endif  // SRC_COMM_PS_BACKEND_H_
