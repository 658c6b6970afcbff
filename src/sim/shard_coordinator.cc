#include "src/sim/shard_coordinator.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <tuple>
#include <utility>

#include "src/common/check.h"
#include "src/exec/thread_pool.h"

namespace bsched {

ShardCoordinator::ShardCoordinator(int shards, SimTime lookahead)
    : lookahead_(lookahead) {
  BSCHED_CHECK(shards >= 1);
  // Conservative PDES needs positive lookahead.
  BSCHED_CHECK(lookahead_.nanos() > 0);
  sims_.reserve(shards);
  for (int i = 0; i < shards; ++i) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  outboxes_.resize(shards);
  if (shards > 1) {
    // One worker per shard (not per host core): every window submits exactly
    // `shards` tasks, and oversubscription just serializes them — which also
    // keeps the barrier handoff exercised under TSan on small machines.
    pool_ = std::make_unique<ThreadPool>(shards);
  }
}

ShardCoordinator::~ShardCoordinator() = default;

void ShardCoordinator::Post(int src, int dst, uint64_t channel, SimTime delay,
                            EventFn fn) {
  BSCHED_CHECK(src >= 0 && src < shards());
  BSCHED_CHECK(dst >= 0 && dst < shards());
  // A cross-shard delay below the lookahead would break the window.
  BSCHED_CHECK(delay >= lookahead_);
  Outbox& ob = outboxes_[src];
  const uint64_t cseq = ob.channel_seq[channel]++;
  ob.msgs.push_back(
      PendingMsg{sims_[src]->Now() + delay, channel, cseq, dst, std::move(fn)});
}

void ShardCoordinator::DeliverPending() {
  std::vector<PendingMsg> batch;
  for (Outbox& ob : outboxes_) {
    if (batch.empty()) {
      batch = std::move(ob.msgs);
    } else {
      for (PendingMsg& m : ob.msgs) {
        batch.push_back(std::move(m));
      }
    }
    ob.msgs.clear();
  }
  if (batch.empty()) {
    return;
  }
  // Fixed merge order. The key is unique: channel ids are unique per source
  // entity, an entity lives on exactly one shard, and that shard's outbox
  // numbers the channel's messages consecutively.
  std::sort(batch.begin(), batch.end(), [](const PendingMsg& a, const PendingMsg& b) {
    return std::tie(a.when, a.channel, a.channel_seq) <
           std::tie(b.when, b.channel, b.channel_seq);
  });
  messages_ += batch.size();
  for (PendingMsg& m : batch) {
    sims_[m.dst]->ScheduleAt(m.when, std::move(m.fn));
  }
}

uint64_t ShardCoordinator::Run(SimTime deadline) {
  uint64_t fired_total = 0;
  while (true) {
    DeliverPending();
    SimTime t_min = SimTime::Max();
    bool any = false;
    for (auto& sim : sims_) {
      SimTime t;
      if (sim->NextEventTime(&t)) {
        any = true;
        t_min = std::min(t_min, t);
      }
    }
    if (!any || t_min > deadline) {
      break;
    }
    // Window [t_min, t_min + L); Run's deadline is inclusive, hence L - 1ns.
    SimTime window_last = deadline;
    if (t_min.nanos() <= SimTime::Max().nanos() - lookahead_.nanos()) {
      window_last = std::min(deadline, t_min + lookahead_ - SimTime::Nanos(1));
    }
    ++windows_;
    if (pool_ == nullptr) {
      fired_total += sims_[0]->Run(window_last);
      continue;
    }
    std::mutex mu;
    std::condition_variable cv;
    int remaining = static_cast<int>(sims_.size());
    uint64_t fired = 0;
    for (auto& sim : sims_) {
      Simulator* s = sim.get();
      pool_->Submit([s, window_last, &mu, &cv, &remaining, &fired] {
        const uint64_t f = s->Run(window_last);
        std::lock_guard<std::mutex> lock(mu);
        fired += f;
        if (--remaining == 0) {
          cv.notify_one();
        }
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&remaining] { return remaining == 0; });
    fired_total += fired;
  }
  return fired_total;
}

bool ShardCoordinator::Empty() const {
  for (const auto& sim : sims_) {
    if (!sim->Empty()) {
      return false;
    }
  }
  for (const Outbox& ob : outboxes_) {
    if (!ob.msgs.empty()) {
      return false;
    }
  }
  return true;
}

uint64_t ShardCoordinator::total_processed() const {
  uint64_t total = 0;
  for (const auto& sim : sims_) {
    total += sim->processed_events();
  }
  return total;
}

}  // namespace bsched
