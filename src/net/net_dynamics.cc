#include "src/net/net_dynamics.h"

namespace bsched {
namespace {

// FNV-1a + finalizer; independent of FaultPlan::HashSite so fault and rate
// streams stay decorrelated even when both key on the same link name.
uint64_t HashLinkName(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

RateModel BuildLinkRateModel(const NetDynamicsConfig& config, const std::string& link_name,
                             bool down) {
  const uint64_t site = HashLinkName(link_name);
  RateModel model;
  if (config.volatility_amplitude > 0.0) {
    model = RateModel::Compose(
        model, RateModel::RandomWalk(config.seed ^ site ^ 0xd71f7a11ULL,
                                     config.volatility_amplitude,
                                     NetDynamicsConfig::kVolatilityPeriod,
                                     NetDynamicsConfig::kHorizon));
  }
  if (config.cross_flows > 0) {
    model = RateModel::Compose(
        model, RateModel::CrossTraffic(config.seed ^ site ^ 0xc7055ee4ULL, config.cross_flows,
                                       config.cross_load, NetDynamicsConfig::kCrossPeriod,
                                       NetDynamicsConfig::kCrossDuty,
                                       NetDynamicsConfig::kHorizon));
  }
  if (down && config.down_scale != 1.0) {
    model = RateModel::Compose(model, RateModel::Constant(config.down_scale));
  }
  return model;
}

}  // namespace bsched
