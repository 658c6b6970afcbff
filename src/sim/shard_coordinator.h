// Conservative sharded parallel-DES coordinator. The fabric is partitioned
// into K shards, each backed by its own Simulator; shards advance together
// through lookahead windows [T, T + L) where T is the global minimum next
// event time and L is the lookahead (the minimum cross-entity message
// latency). Within a window every shard runs independently on a ThreadPool
// worker; the coordinator then joins at a barrier, collects every cross-shard
// message posted during the window, and delivers the whole batch in one fixed
// merge order — sorted by (delivery time, channel id, per-channel sequence) —
// before opening the next window.
//
// Determinism: the window sequence depends only on the global event set (T is
// a min over all shards regardless of partition), the delivered batch per
// window is the set of messages whose posting event fired in that window
// (same set at any K), and the merge order is a pure function of the batch.
// Entities interact *only* via Post() — even when source and destination
// happen to live on the same shard — so within-window execution order across
// shards cannot be observed. Results are therefore bit-identical at any shard
// count; tests/sim_test.cc and the fig04 oracle in tests/exec_test.cc enforce
// `--shards 1` vs `--shards N` equality byte for byte.
//
// Safety: Post() requires delay >= lookahead, so a message posted by an event
// at time t in window [T, T + L) arrives at t + delay >= T + L — always in a
// strictly later window, never inside one being executed.
#ifndef SRC_SIM_SHARD_COORDINATOR_H_
#define SRC_SIM_SHARD_COORDINATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace bsched {

class ThreadPool;

class ShardCoordinator {
 public:
  // `lookahead` must be positive: a zero-latency fabric has no conservative
  // window and must use the serial path.
  ShardCoordinator(int shards, SimTime lookahead);
  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;
  ~ShardCoordinator();

  int shards() const { return static_cast<int>(sims_.size()); }
  SimTime lookahead() const { return lookahead_; }
  Simulator* shard(int i) { return sims_[i].get(); }

  // Posts `fn` to run on shard `dst` at shard(src)->Now() + delay. Must be
  // called from code executing on shard `src` (during its window, or from
  // the setup thread before Run). `delay` must be >= lookahead. `channel`
  // identifies the (source entity -> destination entity) stream; messages on
  // one channel keep their posting order, and the channel id breaks
  // cross-channel ties at equal delivery times, so ids must be unique per
  // ordered stream and identical at every shard count.
  void Post(int src, int dst, uint64_t channel, SimTime delay, EventFn fn);

  // Runs windows until every shard drains (or the deadline passes; events at
  // exactly `deadline` still fire). Returns events processed this call.
  uint64_t Run(SimTime deadline = SimTime::Max());

  // True when no live events remain on any shard and no message is pending.
  bool Empty() const;

  uint64_t total_processed() const;  // summed over shards
  uint64_t windows() const { return windows_; }
  uint64_t messages_posted() const { return messages_; }

 private:
  struct PendingMsg {
    SimTime when;
    uint64_t channel;
    uint64_t channel_seq;
    int dst;
    EventFn fn;
  };
  // Written only by the thread running shard `src` within a window (or the
  // coordinator thread between windows); the window barrier publishes it.
  struct Outbox {
    std::vector<PendingMsg> msgs;
    std::map<uint64_t, uint64_t> channel_seq;
  };

  // Moves every outbox into a batch, sorts it by (when, channel, seq), and
  // schedules each message on its destination shard.
  void DeliverPending();

  SimTime lookahead_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<Outbox> outboxes_;
  std::unique_ptr<ThreadPool> pool_;  // absent when shards == 1
  uint64_t windows_ = 0;
  uint64_t messages_ = 0;
  size_t pending_count_ = 0;
};

}  // namespace bsched

#endif  // SRC_SIM_SHARD_COORDINATOR_H_
