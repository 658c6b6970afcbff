// Reference model of the Simulator's observable contract for oracle tests:
// pending events kept fully sorted by (time, schedule order) in a std::map,
// cancellation marks an entry dead (it is skipped when it reaches the head,
// or dropped by a compaction pass once dead entries dominate, with the
// Simulator's documented thresholds), and firing advances the clock. A
// fired event may schedule one follow-up `chain_delay` later, the way real
// callbacks reschedule. SimLockstep drives a Simulator and a RefSim with the
// same operations so tests can compare everything both expose.
#ifndef TESTS_SIM_REFERENCE_H_
#define TESTS_SIM_REFERENCE_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace bsched {

class RefSim {
 public:
  // Returns a handle for Cancel(). A chained event schedules event
  // `-id - 1` at `chain_delay` after it fires.
  size_t Schedule(int64_t delay, int id, int64_t chain_delay = -1) {
    keys_.push_back(Insert(delay, id, chain_delay));
    return keys_.size() - 1;
  }

  void Cancel(size_t handle) {
    auto it = queue_.find(keys_[handle]);
    if (it == queue_.end() || !it->second.live) {
      return;  // fired, cancelled, or compacted away
    }
    it->second.live = false;
    --live_;
    if (queue_.size() >= 64 && queue_.size() >= 2 * live_) {
      for (auto e = queue_.begin(); e != queue_.end();) {
        e = e->second.live ? std::next(e) : queue_.erase(e);
      }
      ++compactions_;
    }
  }

  bool Step() {
    while (!queue_.empty()) {
      if (PopDeadHead()) {
        continue;
      }
      FireHead();
      return true;
    }
    return false;
  }

  uint64_t Run(int64_t deadline) {
    uint64_t count = 0;
    while (!queue_.empty()) {
      if (PopDeadHead()) {
        continue;
      }
      if (queue_.begin()->first.first > deadline) {
        break;
      }
      FireHead();
      ++count;
    }
    return count;
  }

  int64_t now() const { return now_; }
  size_t pending() const { return live_; }
  size_t queued() const { return queue_.size(); }
  uint64_t processed() const { return fired_.size(); }
  uint64_t skipped() const { return skipped_; }
  uint64_t compactions() const { return compactions_; }
  // (id, fire time) of every fired event, in firing order.
  const std::vector<std::pair<int, int64_t>>& fired() const { return fired_; }

 private:
  using Key = std::pair<int64_t, uint64_t>;  // (time, schedule order)
  struct Entry {
    int id;
    int64_t chain_delay;
    bool live;
  };

  Key Insert(int64_t delay, int id, int64_t chain_delay) {
    const Key key{now_ + delay, seq_++};
    queue_.emplace(key, Entry{id, chain_delay, true});
    ++live_;
    return key;
  }

  bool PopDeadHead() {
    if (queue_.begin()->second.live) {
      return false;
    }
    queue_.erase(queue_.begin());
    ++skipped_;
    return true;
  }

  void FireHead() {
    const auto [key, entry] = *queue_.begin();
    queue_.erase(queue_.begin());
    --live_;
    now_ = key.first;
    fired_.emplace_back(entry.id, now_);
    if (entry.chain_delay >= 0) {
      Insert(entry.chain_delay, -entry.id - 1, -1);
    }
  }

  std::map<Key, Entry> queue_;
  std::vector<Key> keys_;
  int64_t now_ = 0;
  uint64_t seq_ = 0;
  size_t live_ = 0;
  uint64_t skipped_ = 0;
  uint64_t compactions_ = 0;
  std::vector<std::pair<int, int64_t>> fired_;
};

// A Simulator and a RefSim driven in lockstep. Each operation is applied to
// both; ExpectSame() compares every observable.
class SimLockstep {
 public:
  size_t Schedule(int64_t delay, int id, int64_t chain_delay = -1) {
    handles_.push_back(sim_.Schedule(SimTime::Nanos(delay), [this, id, chain_delay] {
      fired_.emplace_back(id, sim_.Now().nanos());
      if (chain_delay >= 0) {
        sim_.Schedule(SimTime::Nanos(chain_delay),
                      [this, sub = -id - 1] { fired_.emplace_back(sub, sim_.Now().nanos()); });
      }
    }));
    return ref_.Schedule(delay, id, chain_delay);
  }

  void Cancel(size_t handle) {
    handles_[handle].Cancel();
    ref_.Cancel(handle);
  }

  bool Step() {
    const bool fired = sim_.Step();
    EXPECT_EQ(fired, ref_.Step());
    return fired;
  }

  uint64_t Run(int64_t deadline = INT64_MAX) {
    const uint64_t count = sim_.Run(SimTime::Nanos(deadline));
    EXPECT_EQ(count, ref_.Run(deadline));
    return count;
  }

  // Clock and queue accounting (cheap; check after every operation).
  void ExpectSameState() const {
    EXPECT_EQ(sim_.Now().nanos(), ref_.now());
    EXPECT_EQ(sim_.PendingEvents(), ref_.pending());
    EXPECT_EQ(sim_.QueuedEvents(), ref_.queued());
    EXPECT_EQ(sim_.skipped_cancelled(), ref_.skipped());
    EXPECT_EQ(sim_.compactions(), ref_.compactions());
  }

  // State plus the whole firing trajectory.
  void ExpectSame() const {
    ExpectSameState();
    EXPECT_EQ(sim_.processed_events(), ref_.processed());
    EXPECT_EQ(fired_, ref_.fired());
  }

  Simulator& sim() { return sim_; }
  RefSim& ref() { return ref_; }
  size_t handles() const { return handles_.size(); }

 private:
  Simulator sim_;
  RefSim ref_;
  std::vector<EventHandle> handles_;
  std::vector<std::pair<int, int64_t>> fired_;
};

}  // namespace bsched

#endif  // TESTS_SIM_REFERENCE_H_
