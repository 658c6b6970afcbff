#include "src/fault/fault_plan.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace bsched {
namespace {

// SplitMix64 finalizer: stateless mixing for per-(episode, site, message)
// decisions, so fault fate never depends on query order.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double MixToUnit(uint64_t x) {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Mix(x) >> 11) * 0x1.0p-53;
}

}  // namespace

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kLatencySpike:
      return "latency_spike";
    case FaultKind::kLinkDown:
      return "link_down";
    case FaultKind::kStraggler:
      return "straggler";
    case FaultKind::kShardSlow:
      return "shard_slow";
  }
  return "?";
}

FaultPlanConfig FaultPlanConfig::Chaos(uint64_t seed) {
  FaultPlanConfig cfg;
  cfg.seed = seed;
  cfg.drop_episodes = 3;
  cfg.latency_episodes = 4;
  cfg.link_down_episodes = 2;
  cfg.straggler_episodes = 2;
  cfg.shard_slow_episodes = 2;
  return cfg;
}

FaultPlan::FaultPlan(const FaultPlanConfig& config) : config_(config) {
  BSCHED_CHECK(config_.horizon.nanos() > 0);
  BSCHED_CHECK(config_.drop_prob >= 0.0 && config_.drop_prob <= 1.0);
  BSCHED_CHECK(config_.retry_timeout.nanos() > 0);
  BSCHED_CHECK(config_.retry_backoff >= 1.0);
  BSCHED_CHECK(config_.max_retries >= 0);
  Rng rng(config_.seed ^ 0xfa017a7e5eedULL);
  auto place = [&](FaultKind kind, int count, SimTime len) {
    for (int i = 0; i < count; ++i) {
      FaultEpisode ep;
      ep.kind = kind;
      const int64_t span = std::max<int64_t>(config_.horizon.nanos() - len.nanos(), 1);
      ep.start = SimTime(rng.UniformInt(0, span - 1));
      ep.end = ep.start + len;
      ep.salt = rng.NextU64();
      episodes_.push_back(ep);
    }
  };
  place(FaultKind::kDrop, config_.drop_episodes, config_.drop_len);
  for (size_t i = episodes_.size() - config_.drop_episodes; i < episodes_.size(); ++i) {
    episodes_[i].drop_prob = config_.drop_prob;
  }
  place(FaultKind::kLatencySpike, config_.latency_episodes, config_.latency_len);
  for (size_t i = episodes_.size() - config_.latency_episodes; i < episodes_.size(); ++i) {
    episodes_[i].delay = config_.latency_spike;
  }
  place(FaultKind::kLinkDown, config_.link_down_episodes, config_.link_down_len);
  place(FaultKind::kStraggler, config_.straggler_episodes, config_.straggler_len);
  for (size_t i = episodes_.size() - config_.straggler_episodes; i < episodes_.size(); ++i) {
    episodes_[i].factor = config_.straggler_factor;
  }
  place(FaultKind::kShardSlow, config_.shard_slow_episodes, config_.shard_slow_len);
  for (size_t i = episodes_.size() - config_.shard_slow_episodes; i < episodes_.size(); ++i) {
    episodes_[i].factor = config_.shard_slow_factor;
  }
}

bool FaultPlan::Applies(const FaultEpisode& episode, uint64_t site_hash, SimTime now) const {
  if (now < episode.start || now >= episode.end) {
    return false;
  }
  return MixToUnit(episode.salt ^ site_hash) < config_.site_prob;
}

bool FaultPlan::DropMessage(uint64_t site_hash, uint64_t msg_index, SimTime now) const {
  for (const FaultEpisode& ep : episodes_) {
    if (ep.kind != FaultKind::kDrop || !Applies(ep, site_hash, now)) {
      continue;
    }
    if (MixToUnit(config_.seed ^ ep.salt ^ site_hash ^ (msg_index * 0x2545f4914f6cdd1dULL)) <
        ep.drop_prob) {
      return true;
    }
  }
  return false;
}

SimTime FaultPlan::ExtraLatency(uint64_t site_hash, SimTime now) const {
  SimTime extra;
  for (const FaultEpisode& ep : episodes_) {
    if (ep.kind == FaultKind::kLatencySpike && Applies(ep, site_hash, now)) {
      extra += ep.delay;
    }
  }
  return extra + OutageDeferral(site_hash, now);
}

SimTime FaultPlan::OutageDeferral(uint64_t site_hash, SimTime now) const {
  SimTime extra;
  for (const FaultEpisode& ep : episodes_) {
    if (ep.kind == FaultKind::kLinkDown && Applies(ep, site_hash, now)) {
      // The message sits in the retransmission queue until the link is back:
      // the integral of the episode's zero-rate window from `now` on.
      extra += ep.end - now;
    }
  }
  return extra;
}

double FaultPlan::ComputeFactor(int worker, SimTime now) const {
  double factor = 1.0;
  const uint64_t site = HashWorker(worker);
  for (const FaultEpisode& ep : episodes_) {
    if (ep.kind == FaultKind::kStraggler && Applies(ep, site, now)) {
      factor = std::max(factor, ep.factor);
    }
  }
  return factor;
}

double FaultPlan::ShardFactor(int shard, SimTime now) const {
  double factor = 1.0;
  const uint64_t site = HashShard(shard);
  for (const FaultEpisode& ep : episodes_) {
    if (ep.kind == FaultKind::kShardSlow && Applies(ep, site, now)) {
      factor = std::max(factor, ep.factor);
    }
  }
  return factor;
}

uint64_t FaultPlan::HashSite(const std::string& site) {
  // FNV-1a, then mixed; stable across platforms.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix(h);
}

uint64_t FaultPlan::HashWorker(int worker) {
  return Mix(0x3017ae1e57ULL ^ static_cast<uint64_t>(worker));
}

uint64_t FaultPlan::HashShard(int shard) {
  return Mix(0x54a4dc0de5ULL ^ static_cast<uint64_t>(shard));
}

}  // namespace bsched
