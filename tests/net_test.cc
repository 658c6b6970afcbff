#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/trace.h"
#include "src/fault/fault_injector.h"
#include "src/model/zoo.h"
#include "src/net/link.h"
#include "src/net/net_dynamics.h"
#include "src/net/rate_controller.h"
#include "src/net/rate_model.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/runtime/training_job.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

TEST(TransportTest, IdealHasNoOverhead) {
  TransportModel t = TransportModel::Ideal();
  EXPECT_EQ(t.TotalOverhead().nanos(), 0);
  Bandwidth line = Bandwidth::Gbps(8);  // 1 GB/s
  EXPECT_EQ(t.MessageTime(line, 1'000'000).nanos(), 1'000'000);
}

TEST(TransportTest, TcpAddsOverheadAndCapsGoodput) {
  TransportModel t = TransportModel::Tcp();
  // At 1 Gbps the cap is irrelevant; efficiency 0.9 applies.
  Bandwidth low = Bandwidth::Gbps(1);
  EXPECT_DOUBLE_EQ(t.EffectiveRate(low).ToGbps(), 0.9);
  // At 100 Gbps the per-connection cap dominates.
  Bandwidth high = Bandwidth::Gbps(100);
  EXPECT_DOUBLE_EQ(t.EffectiveRate(high).ToGbps(), 34.0);
  // Total per-message overhead is the paper's ~300us, split between a serial
  // stack component and pipelined latency.
  EXPECT_EQ(t.TotalOverhead(), SimTime::Micros(300));
  EXPECT_LT(t.serial_overhead, t.latency);
}

TEST(TransportTest, RdmaSaturatesFastLinks) {
  TransportModel t = TransportModel::Rdma();
  Bandwidth high = Bandwidth::Gbps(100);
  EXPECT_DOUBLE_EQ(t.EffectiveRate(high).ToGbps(), 95.0);
  EXPECT_LT(t.TotalOverhead(), TransportModel::Tcp().TotalOverhead());
}

TEST(TransportTest, MessageTimeIsTransmitPlusSerialOverhead) {
  TransportModel t = TransportModel::Rdma();
  Bandwidth line = Bandwidth::Gbps(80);  // effective 76 Gbps = 9.5 GB/s
  SimTime msg = t.MessageTime(line, 9'500'000);
  EXPECT_EQ(msg, SimTime::Micros(1000) + t.serial_overhead);
}

TEST(LinkTest, SerializesMessagesFifo) {
  Simulator sim;
  Link link(&sim, "l", Bandwidth::Gbps(8), TransportModel::Ideal());
  std::vector<int64_t> deliveries;
  link.Send(1'000'000, [&] { deliveries.push_back(sim.Now().nanos()); });  // 1ms
  link.Send(2'000'000, [&] { deliveries.push_back(sim.Now().nanos()); });  // +2ms
  sim.Run();
  EXPECT_EQ(deliveries, (std::vector<int64_t>{1'000'000, 3'000'000}));
  EXPECT_EQ(link.bytes_sent(), 3'000'000);
  EXPECT_EQ(link.messages_sent(), 2u);
}

TEST(LinkTest, OverheadPaidPerMessage) {
  Simulator sim;
  TransportModel t = TransportModel::Ideal();
  t.serial_overhead = SimTime::Micros(100);
  Link link(&sim, "l", Bandwidth::Gbps(8), t);
  SimTime last;
  for (int i = 0; i < 4; ++i) {
    link.Send(1'000'000, [&] { last = sim.Now(); });
  }
  sim.Run();
  // 4 x (1ms + 100us)
  EXPECT_EQ(last, SimTime::Micros(4400));
}

TEST(LinkTest, SmallPartitionsWasteBandwidth) {
  // Sending 8 MB as 1 message vs 128 messages: the partitioned send pays
  // 128 overheads. This is the partition-overhead penalty of §4.1.
  auto total_time = [](int num_parts) {
    Simulator sim;
    TransportModel t = TransportModel::Ideal();
    t.serial_overhead = SimTime::Micros(300);
    Link link(&sim, "l", Bandwidth::Gbps(8), t);
    const Bytes total = MiB(8);
    for (int i = 0; i < num_parts; ++i) {
      link.Send(total / num_parts, nullptr);
    }
    sim.Run();
    return sim.Now();
  };
  SimTime one = total_time(1);
  SimTime many = total_time(128);
  EXPECT_EQ((many - one), SimTime::Micros(300) * 127);
}

TEST(LinkTest, FlushesLandOnNominalMessageTime) {
  // The exact-timing contract every golden rests on: on a link that keeps
  // its default identity schedule, back-to-back messages flush exactly
  // TransportModel::MessageTime apart at the line rate — the rate integral
  // adds no rounding of its own.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed ^ 0x51c6e1ULL);
    for (const TransportModel& t : {TransportModel::Tcp(), TransportModel::Rdma()}) {
      const Bandwidth line = Bandwidth::Gbps(rng.Uniform(1.0, 100.0));
      std::vector<Bytes> sizes;
      for (int i = 0; i < 8; ++i) {
        sizes.push_back(rng.UniformInt(1'000, 8'000'000));
      }
      Simulator sim;
      Link link(&sim, "l", line, t);
      std::vector<int64_t> flushes;
      link.SetFlightHandlers([&](uint32_t) { flushes.push_back(sim.Now().nanos()); },
                             nullptr);
      for (size_t i = 0; i < sizes.size(); ++i) {
        link.SendFlight(sizes[i], static_cast<uint32_t>(i));
      }
      sim.Run();
      ASSERT_EQ(flushes.size(), sizes.size());
      SimTime expected;
      for (size_t i = 0; i < sizes.size(); ++i) {
        expected += t.MessageTime(line, sizes[i]);
        EXPECT_EQ(flushes[i], expected.nanos()) << t.name << " seed " << seed << " msg " << i;
      }
    }
  }
}

TEST(LinkTest, LatencyPipelinesAcrossMessages) {
  // Two back-to-back messages: occupancy serializes but latency overlaps,
  // so the second delivery lags the first by exactly one occupancy.
  Simulator sim;
  TransportModel t = TransportModel::Ideal();
  t.latency = SimTime::Micros(500);
  Link link(&sim, "l", Bandwidth::Gbps(8), t);
  std::vector<int64_t> deliveries;
  link.Send(1'000'000, [&] { deliveries.push_back(sim.Now().nanos()); });
  link.Send(1'000'000, [&] { deliveries.push_back(sim.Now().nanos()); });
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 1'500'000);  // 1ms occupancy + 500us latency
  EXPECT_EQ(deliveries[1], 2'500'000);  // +1ms occupancy only
}

TEST(LinkTest, SendFlightSeparatesFlushFromDelivery) {
  Simulator sim;
  TransportModel t = TransportModel::Ideal();
  t.latency = SimTime::Micros(200);
  Link link(&sim, "l", Bandwidth::Gbps(8), t);
  SimTime flushed;
  SimTime handed_off;
  SimTime delivered;
  link.SetFlightHandlers(
      [&](uint32_t token) {
        EXPECT_EQ(token, 7u);
        flushed = sim.Now();
      },
      [&](uint32_t token, SimTime wire) {
        EXPECT_EQ(token, 7u);
        handed_off = sim.Now();
        sim.Schedule(wire, [&] { delivered = sim.Now(); });
      });
  link.SendFlight(1'000'000, /*token=*/7);
  sim.Run();
  EXPECT_EQ(flushed, SimTime::Millis(1));
  // The wire flight is handed over at flush time; the caller lands it.
  EXPECT_EQ(handed_off, SimTime::Millis(1));
  EXPECT_EQ(delivered, SimTime::Millis(1) + SimTime::Micros(200));
}

TEST(LinkTest, SendAndSendFlightShareOneFifo) {
  // Send and SendFlight messages interleave in one FIFO: each token reaches
  // its own handler exactly once, in flush order, and each Send runs its own
  // callback one latency after its flush.
  Simulator sim;
  TransportModel t = TransportModel::Ideal();
  t.latency = SimTime::Micros(200);
  Link link(&sim, "l", Bandwidth::Gbps(8), t);  // 1 MB flushes every 1 ms
  std::vector<std::string> log;
  auto stamp = [&](const std::string& what) {
    log.push_back(what + "@" + std::to_string(sim.Now().nanos()));
  };
  link.SetFlightHandlers([&](uint32_t token) { stamp("flush" + std::to_string(token)); },
                         [&](uint32_t token, SimTime wire) {
                           stamp("deliver" + std::to_string(token) + "+" +
                                 std::to_string(wire.nanos()));
                         });
  link.Send(1'000'000, [&] { stamp("send0"); });
  link.SendFlight(1'000'000, /*token=*/11);
  link.SendFlight(1'000'000, /*token=*/12);
  link.Send(1'000'000, [&] { stamp("send3"); });
  link.SendFlight(1'000'000, /*token=*/14);
  sim.Run();
  const std::vector<std::string> expected = {
      "send0@1200000",   "flush11@2000000", "deliver11+200000@2000000",
      "flush12@3000000", "deliver12+200000@3000000", "send3@4200000",
      "flush14@5000000", "deliver14+200000@5000000"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(link.messages_sent(), 5u);
}

TEST(LinkTest, DroppedMessagesReachTheirOwners) {
  // Every message inside the certain-drop window is lost: a dropped flight
  // hands (token, kDropped) to its deliver handler, and a dropped Send
  // destroys its callback without running it.
  Simulator sim;
  FaultPlanConfig plan;
  plan.seed = 5;
  plan.horizon = SimTime::Millis(10);
  plan.site_prob = 1.0;
  plan.drop_episodes = 1;
  plan.drop_prob = 1.0;
  plan.drop_len = SimTime::Millis(10);
  FaultInjector faults(plan, &sim);
  Link link(&sim, "l", Bandwidth::Gbps(8), TransportModel::Ideal());
  link.SetFaultInjector(&faults);
  std::vector<uint32_t> dropped;
  link.SetFlightHandlers(nullptr, [&](uint32_t token, SimTime wire) {
    EXPECT_EQ(wire, Link::kDropped);
    dropped.push_back(token);
  });
  auto owner = std::make_shared<int>(0);
  link.SendFlight(1'000'000, /*token=*/3);
  link.Send(1'000'000, [owner] { ++*owner; });
  link.SendFlight(1'000'000, /*token=*/4);
  EXPECT_EQ(owner.use_count(), 2);
  sim.Run();
  EXPECT_EQ(dropped, (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ(*owner, 0);
  EXPECT_EQ(owner.use_count(), 1);
  EXPECT_EQ(faults.stats().drops_injected, 3u);
}

TEST(LinkTest, DeliveryMaySendAgainOnTheSameLink) {
  // A delivered message's callback slot is reused by the next Send: one
  // made from inside the delivery callback itself (zero latency delivers
  // inline at the flush) or one made while the message is still on the wire.
  // Every message must run its own callback, exactly once.
  for (const SimTime latency : {SimTime(), SimTime::Micros(200)}) {
    Simulator sim;
    TransportModel t = TransportModel::Ideal();
    t.latency = latency;
    Link link(&sim, "l", Bandwidth::Gbps(8), t);  // 1 MB flushes every 1 ms
    std::vector<std::string> log;
    const std::string a = "a";  // too large a capture to be stored inline
    link.Send(1'000'000, [&, a] {
      link.Send(1'000'000, [&] { log.push_back("b"); });
      log.push_back(a);
    });
    link.Send(1'000'000, [&] { log.push_back("c"); });
    // After the first flush, before its delivery when latency is nonzero.
    sim.Schedule(SimTime::Micros(1100),
                 [&] { link.Send(1'000'000, [&] { log.push_back("d"); }); });
    sim.Run();
    const std::vector<std::string> expected =
        latency.nanos() == 0 ? std::vector<std::string>{"a", "c", "b", "d"}
                             : std::vector<std::string>{"a", "c", "d", "b"};
    EXPECT_EQ(log, expected) << latency.nanos();
    EXPECT_EQ(link.messages_sent(), 4u);
  }
}

TEST(LinkTest, BusyAndQueueLength) {
  Simulator sim;
  Link link(&sim, "l", Bandwidth::Gbps(8), TransportModel::Ideal());
  EXPECT_FALSE(link.busy());
  link.Send(1'000'000, nullptr);
  link.Send(1'000'000, nullptr);
  EXPECT_TRUE(link.busy());
  EXPECT_EQ(link.queue_length(), 1u);
  sim.Run();
  EXPECT_FALSE(link.busy());
}

// ---- RateModel schedules --------------------------------------------------

TEST(RateModelTest, IdentityAndConstant) {
  RateModel id;
  EXPECT_TRUE(id.IsIdentity());
  EXPECT_DOUBLE_EQ(id.ScaleAt(SimTime::Millis(5)), 1.0);
  EXPECT_EQ(id.NextChangeAfter(SimTime()), SimTime::Max());
  RateModel half = RateModel::Constant(0.5);
  EXPECT_FALSE(half.IsIdentity());
  EXPECT_DOUBLE_EQ(half.ScaleAt(SimTime()), 0.5);
  EXPECT_EQ(half.NextChangeAfter(SimTime()), SimTime::Max());
}

TEST(RateModelTest, PiecewiseLookupAndBreakpoints) {
  RateModel m = RateModel::Piecewise(
      {{SimTime::Millis(1), 0.5}, {SimTime::Millis(3), 0.25}, {SimTime::Millis(4), 1.0}});
  // A leading identity segment is synthesized before the first step.
  EXPECT_DOUBLE_EQ(m.ScaleAt(SimTime()), 1.0);
  EXPECT_DOUBLE_EQ(m.ScaleAt(SimTime::Millis(1)), 0.5);
  EXPECT_DOUBLE_EQ(m.ScaleAt(SimTime::Millis(2)), 0.5);
  EXPECT_DOUBLE_EQ(m.ScaleAt(SimTime::Millis(3)), 0.25);
  EXPECT_DOUBLE_EQ(m.ScaleAt(SimTime::Millis(10)), 1.0);
  EXPECT_EQ(m.NextChangeAfter(SimTime()), SimTime::Millis(1));
  EXPECT_EQ(m.NextChangeAfter(SimTime::Millis(1)), SimTime::Millis(3));
  EXPECT_EQ(m.NextChangeAfter(SimTime::Millis(4)), SimTime::Max());
}

TEST(RateModelDeathTest, RejectsANonPositiveScale) {
  // A schedule only derates a link; an outage is a fault plan's link-down
  // window, not a zero-rate segment.
  EXPECT_DEATH(RateModel::Constant(0.0), "rate scale must be positive");
  EXPECT_DEATH(RateModel::Constant(-0.5), "rate scale must be positive");
  EXPECT_DEATH(RateModel::Piecewise({{SimTime(), 1.0}, {SimTime::Millis(2), 0.0}}),
               "rate scale must be positive");
  EXPECT_DEATH(RateModel::Piecewise({{SimTime::Millis(1), -1.0}}), "rate scale must be positive");
}

TEST(LinkDeathTest, RejectsANonPositiveRate) {
  Simulator sim;
  TransportModel lossy = TransportModel::Ideal();
  lossy.efficiency = 0.0;
  EXPECT_DEATH(Link(&sim, "l", Bandwidth::Gbps(0), TransportModel::Ideal()),
               "a link needs a positive rate");
  EXPECT_DEATH(Link(&sim, "l", Bandwidth::Gbps(8), lossy), "a link needs a positive rate");
}

TEST(RateModelTest, BuildersAreDeterministicAndBounded) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const RateModel walk =
        RateModel::RandomWalk(seed, 0.6, SimTime::Micros(500), SimTime::Millis(40));
    const RateModel walk2 =
        RateModel::RandomWalk(seed, 0.6, SimTime::Micros(500), SimTime::Millis(40));
    ASSERT_EQ(walk.steps().size(), walk2.steps().size());
    for (size_t i = 0; i < walk.steps().size(); ++i) {
      EXPECT_EQ(walk.steps()[i].start, walk2.steps()[i].start);
      EXPECT_DOUBLE_EQ(walk.steps()[i].scale, walk2.steps()[i].scale);
      EXPECT_GE(walk.steps()[i].scale, 0.4);
      EXPECT_LE(walk.steps()[i].scale, 1.0);
    }
    const RateModel cross = RateModel::CrossTraffic(seed, 3, 0.4, SimTime::Millis(2), 0.5,
                                                    SimTime::Millis(40));
    EXPECT_GT(cross.steps().size(), 1u);
    for (const RateStep& s : cross.steps()) {
      EXPECT_GE(s.scale, RateModel::kMinScale);
      EXPECT_LE(s.scale, 1.0);
    }
  }
  // Different seeds wander differently.
  const RateModel a = RateModel::RandomWalk(1, 0.6, SimTime::Micros(500), SimTime::Millis(40));
  const RateModel b = RateModel::RandomWalk(2, 0.6, SimTime::Micros(500), SimTime::Millis(40));
  bool differs = false;
  for (int t = 0; t < 40 && !differs; ++t) {
    differs = a.ScaleAt(SimTime::Millis(t)) != b.ScaleAt(SimTime::Millis(t));
  }
  EXPECT_TRUE(differs);
}

TEST(RateModelTest, ComposeIsPointwiseProduct) {
  const RateModel a =
      RateModel::Piecewise({{SimTime(), 0.8}, {SimTime::Millis(2), 0.5}});
  const RateModel b =
      RateModel::Piecewise({{SimTime::Millis(1), 0.5}, {SimTime::Millis(3), 1.0}});
  const RateModel c = RateModel::Compose(a, b);
  for (int64_t us = 0; us <= 4000; us += 137) {
    const SimTime t = SimTime::Micros(us);
    EXPECT_DOUBLE_EQ(c.ScaleAt(t), a.ScaleAt(t) * b.ScaleAt(t)) << us;
  }
  EXPECT_TRUE(RateModel::Compose(RateModel(), RateModel()).IsIdentity());
}

TEST(NetDynamicsTest, LinkModelsAreDeterministicPerName) {
  NetDynamicsConfig dyn;
  dyn.seed = 7;
  dyn.volatility_amplitude = 0.5;
  dyn.cross_flows = 2;
  const RateModel a = BuildLinkRateModel(dyn, "worker0.up", false);
  const RateModel a2 = BuildLinkRateModel(dyn, "worker0.up", false);
  ASSERT_EQ(a.steps().size(), a2.steps().size());
  for (size_t i = 0; i < a.steps().size(); ++i) {
    EXPECT_EQ(a.steps()[i].start, a2.steps()[i].start);
    EXPECT_DOUBLE_EQ(a.steps()[i].scale, a2.steps()[i].scale);
  }
  // Distinct links get decorrelated schedules.
  const RateModel b = BuildLinkRateModel(dyn, "worker1.up", false);
  bool differs = false;
  for (int t = 0; t < 40 && !differs; ++t) {
    differs = a.ScaleAt(SimTime::Millis(t)) != b.ScaleAt(SimTime::Millis(t));
  }
  EXPECT_TRUE(differs);
}

// ---- rate-integral trajectory oracle --------------------------------------

// Independent closed-form oracle: integrates the rate trajectory segment by
// segment and inverts the integral at nanosecond resolution (the same
// resolution the simulator clocks at). Deliberately coded with a different
// multiplication order than the Link, so agreement within 1 ulp of sim-time
// is a property check, not a tautology.
int64_t OracleFinishNs(const RateModel& model, const TransportModel& t, double line_bps,
                       Bytes size, SimTime start) {
  double remaining = static_cast<double>(size);
  SimTime at = start + t.serial_overhead;
  for (;;) {
    const double rate =
        std::min(model.ScaleAt(at) * t.efficiency * line_bps,
                 t.goodput_cap.bytes_per_sec());
    const SimTime next = model.NextChangeAfter(at);
    const SimTime fin = at + SimTime(static_cast<int64_t>(std::llround(remaining / rate * 1e9)));
    if (next == SimTime::Max() || fin <= next) {
      return fin.nanos();
    }
    remaining -= rate * (next - at).ToSeconds();
    remaining = std::max(remaining, 0.0);
    at = next;
  }
}

TEST(RateModelOracleTest, CompletionMatchesScheduleIntegralAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
    TransportModel t = TransportModel::Ideal();
    t.serial_overhead = SimTime(rng.UniformInt(0, 100'000));
    t.latency = SimTime(rng.UniformInt(0, 50'000));
    t.efficiency = rng.Uniform(0.7, 1.0);
    if (rng.NextDouble() < 0.3) {
      t.goodput_cap = Bandwidth::Gbps(rng.Uniform(1.0, 20.0));
    }
    const Bandwidth line = Bandwidth::Gbps(rng.Uniform(1.0, 100.0));
    RateModel model = RateModel::RandomWalk(seed, rng.Uniform(0.2, 0.9),
                                            SimTime(rng.UniformInt(20'000, 400'000)),
                                            SimTime::Millis(50));
    if (rng.NextDouble() < 0.5) {
      model = RateModel::Compose(
          model, RateModel::CrossTraffic(seed ^ 0xabcdULL, 2, rng.Uniform(0.2, 0.6),
                                         SimTime(rng.UniformInt(50'000, 500'000)), 0.5,
                                         SimTime::Millis(50)));
    }
    Simulator sim;
    Link link(&sim, "fuzz", line, t);
    link.SetRateModel(model);
    constexpr int kMsgs = 6;
    std::vector<Bytes> sizes;
    std::vector<int64_t> flushes;
    link.SetFlightHandlers([&flushes, &sim](uint32_t) { flushes.push_back(sim.Now().nanos()); },
                           nullptr);
    for (int i = 0; i < kMsgs; ++i) {
      sizes.push_back(rng.UniformInt(1'000, 4'000'000));
      link.SendFlight(sizes[i], static_cast<uint32_t>(i));
    }
    sim.Run();
    ASSERT_EQ(flushes.size(), static_cast<size_t>(kMsgs));
    int64_t start = 0;
    for (int i = 0; i < kMsgs; ++i) {
      const int64_t oracle =
          OracleFinishNs(model, t, line.bytes_per_sec(), sizes[i], SimTime(start));
      EXPECT_LE(std::llabs(flushes[i] - oracle), 1)
          << "seed " << seed << " msg " << i << " flush " << flushes[i] << " oracle " << oracle;
      start = flushes[i];  // FIFO: the next transfer starts at this flush
    }
  }
}

TEST(DynamicLinkTest, CtrlScaleRepacesInFlightTransfer) {
  // 1 GB/s identity schedule, 8 MB transfer (nominal 8 ms). Halving the rate
  // at 2 ms re-paces the remaining 6 MB to 12 ms (completion 14 ms); restoring
  // it at 5 ms leaves 4.5 MB at full rate -> completion at 9.5 ms.
  Simulator sim;
  Link link(&sim, "l", Bandwidth::Gbps(8), TransportModel::Ideal());
  SimTime flushed;
  link.SetFlightHandlers([&](uint32_t) { flushed = sim.Now(); }, nullptr);
  link.SendFlight(8'000'000, /*token=*/0);
  sim.Schedule(SimTime::Millis(2), [&] { link.SetCtrlScale(0.5); });
  sim.Schedule(SimTime::Millis(5), [&] { link.SetCtrlScale(1.0); });
  sim.Run();
  EXPECT_EQ(flushed, SimTime::Micros(9500));
  EXPECT_EQ(link.repace_events(), 2u);
  EXPECT_DOUBLE_EQ(link.ctrl_scale(), 1.0);
}

TEST(RateControllerTest, AimdBacksOffAndRecovers) {
  Simulator sim;
  Link link(&sim, "l", Bandwidth::Gbps(8), TransportModel::Ideal());
  RateController ctrl(&link);
  ctrl.OnLoss();
  EXPECT_DOUBLE_EQ(ctrl.scale(), 0.5);
  EXPECT_DOUBLE_EQ(link.ctrl_scale(), 0.5);
  ctrl.OnLoss();
  ctrl.OnLoss();
  ctrl.OnLoss();
  EXPECT_DOUBLE_EQ(ctrl.scale(), 0.1);  // 0.0625 floored at kMinScale
  EXPECT_EQ(ctrl.decreases(), 4u);
  for (int i = 0; i < 30; ++i) {
    ctrl.OnAck();
  }
  EXPECT_DOUBLE_EQ(ctrl.scale(), 1.0);  // capped at full rate
  EXPECT_DOUBLE_EQ(link.ctrl_scale(), 1.0);
  EXPECT_EQ(ctrl.increases(), 18u);  // 0.1 -> 0.15 -> ... -> 1.0 in steps of 0.05
}

// ---- zero-cost regression (dynamics disabled / enabled-but-idle) ----------

JobConfig DynJobConfig() {
  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsRdma();
  job.mode = SchedMode::kByteScheduler;
  job.num_machines = 2;
  job.bandwidth = Bandwidth::Gbps(100);
  job.warmup_iters = 1;
  job.measure_iters = 2;
  const TunedParams tuned =
      DefaultTunedParams(job.model, job.setup.arch, job.setup.transport, job.bandwidth);
  job.partition_bytes = tuned.partition_bytes;
  job.credit_bytes = tuned.credit_bytes;
  return job;
}

struct ObsArtifacts {
  uint64_t sim_events = 0;
  std::vector<SimTime> iter_end_times;
  std::string metrics_json;
  std::string timeseries_csv;
  std::string trace_json;
};

ObsArtifacts RunWithArtifacts(const std::optional<NetDynamicsConfig>& dynamics) {
  JobConfig job = DynJobConfig();
  job.dynamics = dynamics;
  MetricsRegistry metrics;
  TimeSeriesRecorder recorder(&metrics, SimTime::Micros(200));
  TraceRecorder trace;
  job.metrics = &metrics;
  job.timeseries = &recorder;
  job.trace = &trace;
  const JobResult result = RunTrainingJob(job);
  ObsArtifacts out;
  out.sim_events = result.sim_events;
  out.iter_end_times = result.iter_end_times;
  std::ostringstream mj;
  metrics.Snapshot().WriteJson(mj);
  out.metrics_json = mj.str();
  out.timeseries_csv = recorder.ToCsv();
  std::ostringstream tj;
  trace.WriteChromeTrace(tj);
  out.trace_json = tj.str();
  return out;
}

TEST(NetDynZeroCostTest, DisabledConfigMatchesUnsetByteForByte) {
  // A present-but-disabled dynamics config must leave every observable
  // artifact byte-identical to a run without the field: event counts,
  // iteration timings, metrics snapshot, time-series CSV, and trace JSON
  // (the "pre-change golden" — the unset path is the legacy event sequence).
  const ObsArtifacts unset = RunWithArtifacts(std::nullopt);
  const ObsArtifacts disabled = RunWithArtifacts(NetDynamicsConfig{});
  EXPECT_EQ(unset.sim_events, disabled.sim_events);
  EXPECT_EQ(unset.iter_end_times, disabled.iter_end_times);
  EXPECT_EQ(unset.metrics_json, disabled.metrics_json);
  EXPECT_EQ(unset.timeseries_csv, disabled.timeseries_csv);
  EXPECT_EQ(unset.trace_json, disabled.trace_json);
}

TEST(NetDynZeroCostTest, EnabledButIdleModelsMatchDisabledTimings) {
  // AIMD alone enables the fabric: identity schedules on every link, rate
  // gauges registered and one controller per uplink. Ack timers are armed
  // only under faults, so on this fault-free job the controllers never act,
  // and everything except the extra rate_bps time-series rows must be
  // byte-identical to the unset run.
  const ObsArtifacts unset = RunWithArtifacts(std::nullopt);
  NetDynamicsConfig idle;
  idle.aimd.enable = true;
  const ObsArtifacts enabled = RunWithArtifacts(idle);
  EXPECT_EQ(unset.sim_events, enabled.sim_events);
  EXPECT_EQ(unset.iter_end_times, enabled.iter_end_times);
  EXPECT_EQ(unset.metrics_json, enabled.metrics_json);
  EXPECT_EQ(unset.trace_json, enabled.trace_json);
  // The CSV gains net.worker<w>.{up,down}.rate_bps probe rows and nothing
  // else: stripping them must recover the disabled-mode CSV byte-for-byte.
  std::istringstream in(enabled.timeseries_csv);
  std::ostringstream stripped;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(".rate_bps,") == std::string::npos) {
      stripped << line << '\n';
    }
  }
  EXPECT_EQ(stripped.str(), unset.timeseries_csv);
  EXPECT_NE(enabled.timeseries_csv, unset.timeseries_csv);
}

TEST(NetDynEndToEndTest, VolatileFabricRunsAndReportsRateActivity) {
  JobConfig job = DynJobConfig();
  NetDynamicsConfig dyn;
  dyn.seed = 5;
  dyn.volatility_amplitude = 0.5;
  dyn.cross_flows = 2;
  dyn.down_scale = 0.8;
  job.dynamics = dyn;
  const JobResult volatile_run = RunTrainingJob(job);
  EXPECT_GT(volatile_run.samples_per_sec, 0.0);
  // Volatility slows training relative to the static fabric.
  JobConfig base = DynJobConfig();
  const JobResult static_run = RunTrainingJob(base);
  EXPECT_LT(volatile_run.samples_per_sec, static_run.samples_per_sec);
}

}  // namespace
}  // namespace bsched
