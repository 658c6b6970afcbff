// Deterministic fault planning. A FaultPlan expands a seeded FaultPlanConfig
// into a fixed set of fault episodes on the simulator clock — link-latency
// spikes, message-drop windows, transient link-down windows, straggler
// compute slowdowns, and PS-shard slow/stall episodes. Every query is a pure
// function of (seed, site, time, message index), so the same plan replayed on
// the same workload produces bit-identical fault timing: chaos tests are
// regular deterministic tests.
#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace bsched {

enum class FaultKind {
  kDrop,         // messages on affected links are lost with drop_prob
  kLatencySpike, // messages on affected links arrive late
  kLinkDown,     // deliveries on affected links defer to the window end
  kStraggler,    // affected workers' compute ops run slower
  kShardSlow,    // affected PS shards' update CPU runs slower (stall-like)
};

const char* ToString(FaultKind kind);

// One fault window. Which sites it hits is decided per (episode, site) by a
// salted hash, so a plan built before the topology exists still assigns
// faults deterministically once links/workers/shards are named.
struct FaultEpisode {
  FaultKind kind = FaultKind::kDrop;
  SimTime start;
  SimTime end;
  double drop_prob = 0.0;  // kDrop
  SimTime delay;           // kLatencySpike
  double factor = 1.0;     // kStraggler / kShardSlow
  uint64_t salt = 0;       // per-episode site-selection salt
};

// Knobs of the fault model plus the recovery policy, whose one home this is:
// the scheduler Cores and the PS backend read it from the FaultInjector they
// are given, so recovery is armed exactly when an injector is attached
// (documented in EXPERIMENTS.md "Fault injection" and "Recovery policy").
struct FaultPlanConfig {
  uint64_t seed = 1;
  // Episodes are placed uniformly at random inside [0, horizon); nothing is
  // injected after the horizon, which bounds every outage and guarantees that
  // bounded retries eventually succeed.
  SimTime horizon = SimTime::Millis(600);
  // Fraction of candidate sites each episode applies to (hash-selected).
  double site_prob = 0.6;

  int drop_episodes = 0;
  double drop_prob = 0.3;
  SimTime drop_len = SimTime::Millis(15);

  int latency_episodes = 0;
  SimTime latency_spike = SimTime::Millis(1);
  SimTime latency_len = SimTime::Millis(20);

  int link_down_episodes = 0;
  SimTime link_down_len = SimTime::Millis(8);

  int straggler_episodes = 0;
  double straggler_factor = 3.0;
  SimTime straggler_len = SimTime::Millis(30);

  int shard_slow_episodes = 0;
  double shard_slow_factor = 6.0;
  SimTime shard_slow_len = SimTime::Millis(20);

  // Recovery policy: a Core subtask attempt or a PS push data leg that has
  // not completed within retry_timeout * retry_backoff^attempt is retried,
  // at most max_retries times; exhausting the budget aborts the run.
  SimTime retry_timeout = SimTime::Millis(25);
  double retry_backoff = 2.0;
  int max_retries = 12;

  bool empty() const {
    return drop_episodes + latency_episodes + link_down_episodes + straggler_episodes +
               shard_slow_episodes ==
           0;
  }

  // A representative mixed plan exercising every fault kind.
  static FaultPlanConfig Chaos(uint64_t seed);
};

class FaultPlan {
 public:
  explicit FaultPlan(const FaultPlanConfig& config);

  const FaultPlanConfig& config() const { return config_; }
  const std::vector<FaultEpisode>& episodes() const { return episodes_; }

  // Message fate on a link site. `msg_index` is the site-local message
  // counter, making the drop draw independent of unrelated traffic.
  bool DropMessage(uint64_t site_hash, uint64_t msg_index, SimTime now) const;
  // Added delivery delay: latency spikes plus OutageDeferral.
  SimTime ExtraLatency(uint64_t site_hash, SimTime now) const;
  // Link-down semantics, the one model of an outage: a delivery attempted at
  // `now` defers to the end of every active link-down episode on the site.
  // Link::FinishSend applies it through ExtraLatency; a RateModel never takes
  // a link to zero.
  SimTime OutageDeferral(uint64_t site_hash, SimTime now) const;

  // Multiplicative slowdown factors (1.0 == unaffected).
  double ComputeFactor(int worker, SimTime now) const;
  double ShardFactor(int shard, SimTime now) const;

  // Stable site naming: links hash their name, workers/shards their index.
  static uint64_t HashSite(const std::string& site);
  static uint64_t HashWorker(int worker);
  static uint64_t HashShard(int shard);

 private:
  bool Applies(const FaultEpisode& episode, uint64_t site_hash, SimTime now) const;

  FaultPlanConfig config_;
  std::vector<FaultEpisode> episodes_;
};

}  // namespace bsched

#endif  // SRC_FAULT_FAULT_PLAN_H_
