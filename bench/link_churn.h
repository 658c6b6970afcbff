// Link send-chain churn for the dynamic-network perf gate (micro_sim and
// obs_overhead): one Link carries a chain of back-to-back messages whose
// delivery callbacks send the successor — the NIC-bound pattern every PS
// worker uplink produces. Measured twice, on the legacy fixed-rate path and
// with an identity RateModel installed (enabled-but-idle dynamics), the
// ratio is the price of the integrating transmit path when nothing varies.
// The simulated timings are bit-identical by the zero-cost contract (see
// src/net/link.h); this measures host CPU only.
#ifndef BENCH_LINK_CHURN_H_
#define BENCH_LINK_CHURN_H_

#include <cstdint>
#include <functional>

#include "bench/churn.h"
#include "src/common/units.h"
#include "src/net/link.h"
#include "src/net/rate_model.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace bench {

struct LinkChurnResult {
  double msgs_per_sec = 0.0;
  uint64_t checksum = 0;  // must match between the static and idle variants
};

// One round: `messages` chained sends over a fresh simulator + link, sizes
// cycling through a small deterministic set so the per-message arithmetic is
// exercised across time scales. Returns CPU-time throughput.
inline LinkChurnResult RunLinkChurn(bool idle_model, int messages) {
  Simulator sim;
  Link link(&sim, "bench.up", Bandwidth::Gbps(10), TransportModel::Tcp());
  if (idle_model) {
    link.SetRateModel(RateModel());  // identity schedule: dynamic path, idle
  }
  static const Bytes kSizes[] = {KiB(4), KiB(64), KiB(512), MiB(1)};
  uint64_t checksum = 0;
  int remaining = messages;
  std::function<void()> send_next = [&] {
    if (remaining <= 0) {
      return;
    }
    const Bytes size = kSizes[remaining % 4];
    --remaining;
    link.Send(size, [&] {
      checksum += static_cast<uint64_t>(sim.Now().nanos() & 0xffff);
      send_next();
    });
  };
  const double start = CpuSeconds();
  send_next();
  sim.Run();
  const double sec = CpuSeconds() - start;
  LinkChurnResult result;
  result.msgs_per_sec = sec > 0 ? messages / sec : 0.0;
  result.checksum = checksum;
  return result;
}

inline LinkChurnResult MeasureLinkChurn(bool idle_model, int messages, int rounds) {
  LinkChurnResult best;
  for (int r = 0; r < rounds; ++r) {
    const LinkChurnResult run = RunLinkChurn(idle_model, messages);
    if (run.msgs_per_sec > best.msgs_per_sec) {
      best.msgs_per_sec = run.msgs_per_sec;
    }
    best.checksum = run.checksum;
  }
  return best;
}

}  // namespace bench
}  // namespace bsched

#endif  // BENCH_LINK_CHURN_H_
