#include "perfbench/layers.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "src/comm/backend.h"
#include "src/core/scheduler_core.h"
#include "src/net/link.h"
#include "src/net/rate_model.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

using bsched::Bytes;
using bsched::SimTime;

// Repetitions per driver; the reported cost is the fastest round.
constexpr int kRounds = 5;

uint64_t Mix(uint64_t h, uint64_t v) { return (h ^ v) * 0x100000001b3ULL; }

// Fixed-seed LCG: the drivers' inputs never depend on the run's seed.
class Lcg {
 public:
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }

 private:
  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs `round` kRounds times; each round returns (units, checksum), which
// must agree across rounds. Reports the fastest round's ns per unit.
LayerResult Measure(const std::function<std::pair<uint64_t, uint64_t>()>& round) {
  std::vector<double> ns;
  LayerResult result;
  for (int r = 0; r < kRounds; ++r) {
    const double start = NowNs();
    const auto [units, checksum] = round();
    ns.push_back(NowNs() - start);
    if (r > 0 && (units != result.units || checksum != result.checksum)) {
      result.checksum = 0;  // non-deterministic layer: can never match the reference
      return result;
    }
    result.units = units;
    result.checksum = checksum;
  }
  result.ns_per_unit =
      *std::min_element(ns.begin(), ns.end()) / static_cast<double>(result.units);
  return result;
}

class ChurnRound {
 public:
  static constexpr int kActors = 64;
  static constexpr uint64_t kFirings = 400000;

  std::pair<uint64_t, uint64_t> Run() {
    for (int a = 0; a < kActors; ++a) {
      Arm(a);
    }
    sim_.Run();
    checksum_ = Mix(checksum_, static_cast<uint64_t>(sim_.Now().nanos()));
    checksum_ = Mix(checksum_, sim_.skipped_cancelled() + timeouts_fired_);
    return {sim_.processed_events(), checksum_};
  }

 private:
  void Arm(int actor) {
    sim_.Schedule(SimTime::Nanos(1 + static_cast<int64_t>(lcg_.Next() % 1000)),
                  [this, actor] { Fire(actor); });
  }

  void Fire(int actor) {
    checksum_ = Mix(checksum_, static_cast<uint64_t>(sim_.Now().nanos()) + actor);
    timeouts_[actor].Cancel();
    if (firings_ == kFirings) {
      return;
    }
    ++firings_;
    timeouts_[actor] = sim_.Schedule(SimTime::Micros(50), [this] { ++timeouts_fired_; });
    Arm(actor);
  }

  bsched::Simulator sim_;
  Lcg lcg_;
  uint64_t checksum_ = 0;
  uint64_t firings_ = 0;
  uint64_t timeouts_fired_ = 0;
  bsched::EventHandle timeouts_[kActors];
};

class InstantBackend : public bsched::CommBackend {
 public:
  void Start(const bsched::SubCommTask& subtask, std::function<void()> on_finish) override {
    checksum = Mix(checksum, static_cast<uint64_t>(subtask.layer) * 4096 + subtask.partition);
    on_finish();
  }
  uint64_t checksum = 0;
};

std::pair<uint64_t, uint64_t> CoreRound() {
  constexpr int kLayers = 64;
  constexpr int kIterations = 2400;
  InstantBackend backend;
  bsched::SchedulerCore core(bsched::SchedulerConfig::ByteScheduler(bsched::MiB(1),
                                                                    bsched::MiB(4)),
                             &backend);
  uint64_t finished = 0;
  for (int it = 0; it < kIterations; ++it) {
    // Backward pass order: the last layer's gradient is ready first.
    for (int layer = kLayers - 1; layer >= 0; --layer) {
      bsched::CommTaskDesc desc;
      desc.layer = layer;
      desc.tensor_bytes = bsched::KiB(256) * (1 + layer % 16);
      desc.type = bsched::CommOpType::kPush;
      desc.on_finish = [&finished] { ++finished; };
      core.NotifyReady(core.Enqueue(std::move(desc)));
    }
  }
  return {core.subtasks_started(), Mix(backend.checksum, finished)};
}

class SendRound {
 public:
  static constexpr int kMessages = 100000;

  std::pair<uint64_t, uint64_t> Run() {
    bsched::Link fixed(&sim_, "perfbench/static", bsched::Bandwidth::Gbps(100),
                       bsched::TransportModel::Rdma());
    bsched::Link paced(&sim_, "perfbench/paced", bsched::Bandwidth::Gbps(100),
                       bsched::TransportModel::Rdma());
    paced.SetRateModel(bsched::RateModel());
    Lcg lcg;
    for (int i = 0; i < kMessages; ++i) {
      const Bytes size = 256 + static_cast<Bytes>(lcg.Next() % (1 << 20));
      fixed.Send(size, [this] { Deliver(1); });
      paced.Send(size, [this] { Deliver(2); });
    }
    sim_.Run();
    return {delivered_, checksum_};
  }

 private:
  void Deliver(uint64_t link) {
    ++delivered_;
    checksum_ = Mix(checksum_, static_cast<uint64_t>(sim_.Now().nanos()) * 4 + link);
  }

  bsched::Simulator sim_;
  uint64_t delivered_ = 0;
  uint64_t checksum_ = 0;
};

}  // namespace

LayerResult SimChurn() {
  return Measure([] { return ChurnRound().Run(); });
}

LayerResult CoreAdmit() { return Measure(CoreRound); }

LayerResult NetSend() {
  return Measure([] { return SendRound().Run(); });
}

}  // namespace perfbench
