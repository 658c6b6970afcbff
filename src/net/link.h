// Directional network links. A Link serializes message transmissions in FIFO
// order at the transport's effective rate; a worker's NIC is two Links, one
// per direction, which is what makes the paper's push/pull pipelining
// argument observable (partitioned tensors keep both directions busy;
// unpartitioned ones waste half the bandwidth).
//
// Every message occupies the link for the transport's serial overhead plus
// the time its bytes take to serialize at the link's instantaneous rate:
// line rate x the RateModel's schedule scale x the AIMD controller scale x
// the transport's efficiency, capped at its goodput ceiling. A controller rate change
// mid-message re-paces the in-flight transfer from the bytes it has
// serialized so far.
// With the default identity schedule and unit scales the integral reduces to
// TransportModel::MessageTime at the nominal rate, to the nanosecond (same
// llround, same operation order), so a link nobody reconfigures is the
// paper's fixed-bandwidth FIFO queue plus per-message overhead θ.
//
// A queue entry is a 16-byte record: size, token, kind and a message count.
// A flight's token is the sender's own index, handed to the flush and
// delivery handlers the sender installs once per link; a Send's token
// indexes the link's pool of parked delivery callbacks. One entry can carry a
// run of equal messages under one token (a PS push run): the
// link transmits them back to back, and a sender that installs a head
// handler names each message only when it reaches the head of the queue
// (the PS backend builds the partition's hop there). With metrics attached,
// the link keeps a running sum of its queued messages' nominal times, so the
// queueing-delay histogram costs O(1) per message however long the backlog.
//
// A link writes only metrics (SetMetrics); the spans and flow points of a
// message in transit are the sender's to record.
#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/pool.h"
#include "src/common/units.h"
#include "src/fault/fault_injector.h"
#include "src/net/rate_model.h"
#include "src/net/transport.h"
#include "src/sim/fifo_ring.h"
#include "src/sim/simulator.h"

namespace bsched {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;

class Link {
 public:
  Link(Simulator* sim, std::string name, Bandwidth line_rate, const TransportModel& transport);

  // Enqueues a message of `size` bytes. `on_delivered` fires when the message
  // reaches the far end: occupancy (serialization + serial overhead) plus the
  // transport's pipelined latency. The link frees at occupancy end, so
  // subsequent messages overlap with in-flight latency. The link parks the
  // callback until the message's flush; a null one only occupies the link.
  void Send(Bytes size, std::function<void()> on_delivered);

  // Like Send, but for a sender that keeps its per-message state itself and
  // names it by `token`. At flush time (occupancy end, when the stack accepts
  // the next message; ps-lite-style push completions are flush-time events)
  // the link calls the installed `on_flushed(token)`, and then, instead of
  // scheduling the delivery itself, hands the computed wire flight
  // (pipelined latency plus any injected delay) to `deliver(token,
  // wire_flight)`; the caller lands the message. A message the fault
  // injector drops calls `deliver(token, kDropped)`, so the caller can
  // reclaim its state. A flight behind an equal one (same size and token)
  // at the tail of the queue joins its entry.
  void SendFlight(Bytes size, uint32_t token);
  // Installs SendFlight's handlers; call once, before the first flight.
  // Either may be null: flights then skip that step (and, without
  // `deliver`, the fault fate too). With `on_head`, each flight message's
  // entry token is passed to on_head when the message reaches the head of
  // the queue, and the token it returns is the one on_flushed and deliver
  // receive.
  void SetFlightHandlers(std::function<void(uint32_t token)> on_flushed,
                         std::function<void(uint32_t token, SimTime wire_flight)> deliver,
                         std::function<uint32_t(uint32_t token)> on_head = nullptr);
  // Wire flight passed to SendFlight's `deliver` for a dropped message.
  static constexpr SimTime kDropped = SimTime::Max();

  // Time a message of `size` occupies this link at the nominal rate
  // (excludes pipelined latency). Scheduler estimates use this even under a
  // varying schedule — admission planning sees the advertised rate, not the
  // future.
  SimTime MessageTime(Bytes size) const { return transport_.MessageTime(line_rate_, size); }

  const TransportModel& transport() const { return transport_; }

  Bytes bytes_sent() const { return bytes_sent_; }
  SimTime busy_time() const { return busy_time_; }
  uint64_t messages_sent() const { return msgs_done_; }
  // Messages waiting behind the one in transmission.
  size_t queue_length() const { return waiting_; }
  bool busy() const { return busy_; }
  // The most entries the queue held at once, the one in transmission
  // included.
  size_t peak_queue_entries() const { return peak_entries_; }
  const std::string& name() const { return name_; }

  // Replaces the capacity schedule (identity by default). Must be called
  // before any traffic.
  void SetRateModel(RateModel model);
  // AIMD controller hook: rescales the link's pacing and re-paces the
  // in-flight transfer from the bytes it has actually serialized so far.
  void SetCtrlScale(double scale);
  double ctrl_scale() const { return ctrl_scale_; }
  // In-flight transfers re-paced by controller rate changes (obs counter).
  uint64_t repace_events() const { return repaces_; }
  // Instantaneous effective rate (bytes/sec) under the current schedule and
  // controller scale. Passive — feeds the time-series rate gauges.
  double CurrentRateBps() const;

  // Fault injection: when set, every delivery consults the injector at flush
  // time — a dropped message pays its occupancy (the sender flushed it) but
  // never delivers; delayed messages add the injected latency on the wire.
  // Null (the default) keeps the exact fault-free event sequence.
  void SetFaultInjector(FaultInjector* faults);

  // Registers and caches this link's metric handles
  // (net.<name>.bytes/.msgs/.queue_ns/.inflight_bytes). Null (the default)
  // keeps the hot path to one pointer check. Must be called before any
  // traffic.
  void SetMetrics(MetricsRegistry* metrics);
  // Final gauges derived from accumulated state (net.<name>.busy_ns);
  // call once after the run.
  void ExportMetrics();

 private:
  // `count` messages of `size` bytes from submission to flush; the front one
  // is in transmission while busy_. A SendFlight message's flush runs
  // on_flushed_ and deliver_; a Send message's token indexes callbacks_.
  struct Msg {
    Bytes size = 0;
    uint32_t token = 0;
    uint32_t count : 31 = 1;
    uint32_t flight : 1 = 0;
  };
  static_assert(sizeof(Msg) <= 16);
  static constexpr uint32_t kMaxRun = (1u << 31) - 1;  // the most messages per entry

  void Enqueue(Msg msg);
  // Virtual time at which all currently queued work will have drained
  // (queued messages estimated at their nominal per-message rate). Metrics
  // only: waiting_time_ is kept only while they are attached.
  SimTime DrainTime() const { return (busy_ ? current_end_ : sim_->Now()) + waiting_time_; }
  // Starts transmitting msgs_.front()'s next message, if any.
  void StartNext();
  // Occupancy end of the front message.
  void OnSent();
  // At occupancy end: pops the front message and runs its inflight gauge,
  // flush handler, fault fate and delivery.
  void FinishSend();

  void ScheduleCompletion();
  // Settles `remaining_` through the rate trajectory up to `until`
  // (controller rate changes integrate the old scale before switching).
  void DrainUntil(SimTime until);
  // Completion time of the current message from (anchor_, remaining_) by
  // walking the schedule's segments.
  SimTime FinishTime() const;
  // Effective serialization rate (bytes/sec) at t.
  double Rate(SimTime t) const;

  Simulator* sim_;
  Bandwidth line_rate_;
  TransportModel transport_;
  std::string name_;
  bool busy_ = false;
  SimTime busy_since_;
  SimTime busy_time_;
  SimTime current_end_;  // occupancy end of the message in transmission
  // The token the message in transmission delivers under (its entry's, or
  // what on_head_ named it).
  uint32_t current_token_ = 0;
  // Messages queued behind the one in transmission, and (with metrics) the
  // sum of their nominal MessageTimes.
  size_t waiting_ = 0;
  SimTime waiting_time_;
  uint64_t msgs_done_ = 0;
  Bytes bytes_sent_ = 0;
  FaultInjector* faults_ = nullptr;
  uint64_t site_hash_ = 0;
  MetricsRegistry* metrics_ = nullptr;
  // Cached handles; m_bytes_ doubles as the "instrumented?" flag.
  Counter* m_bytes_ = nullptr;
  Counter* m_msgs_ = nullptr;
  Histogram* m_queue_ns_ = nullptr;
  Gauge* m_inflight_ = nullptr;
  // Entries submitted and not yet flushed, in FIFO (= flush) order.
  FifoRing<Msg> msgs_;
  size_t peak_entries_ = 0;
  // Delivery callbacks of queued Send messages, by token.
  Pool<std::function<void()>> callbacks_;
  std::function<void(uint32_t)> on_flushed_;
  std::function<void(uint32_t, SimTime)> deliver_;
  std::function<uint32_t(uint32_t)> on_head_;
  RateModel model_;
  double ctrl_scale_ = 1.0;
  // Payload bytes left to serialize as of `anchor_` (transmission starts at
  // message start + serial_overhead; before that, anchor_ is that start).
  double remaining_ = 0.0;
  SimTime anchor_;
  EventHandle completion_;
  uint64_t repaces_ = 0;
};

}  // namespace bsched

#endif  // SRC_NET_LINK_H_
