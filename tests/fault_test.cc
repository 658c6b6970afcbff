// Chaos suite for the deterministic fault-injection fabric: plan determinism,
// injector accounting, SchedulerCore timeout/retry recovery, PS push
// retransmission, the PS uplink's merged push runs with and without faults,
// and scheduler invariants under seeded fault grids.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/comm/ps_backend.h"
#include "src/common/trace.h"
#include "src/core/scheduler_core.h"
#include "src/exec/sweep_runner.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/model/zoo.h"
#include "src/net/net_dynamics.h"
#include "src/obs/json_lite.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

// ---- FaultPlan ------------------------------------------------------------

TEST(FaultPlanTest, SameSeedProducesIdenticalPlanAndDraws) {
  const FaultPlanConfig cfg = FaultPlanConfig::Chaos(42);
  const FaultPlan a(cfg);
  const FaultPlan b(cfg);
  ASSERT_EQ(a.episodes().size(), b.episodes().size());
  for (size_t i = 0; i < a.episodes().size(); ++i) {
    EXPECT_EQ(a.episodes()[i].kind, b.episodes()[i].kind);
    EXPECT_EQ(a.episodes()[i].start, b.episodes()[i].start);
    EXPECT_EQ(a.episodes()[i].end, b.episodes()[i].end);
    EXPECT_EQ(a.episodes()[i].salt, b.episodes()[i].salt);
  }
  const uint64_t site = FaultPlan::HashSite("worker0.up");
  for (int ms = 0; ms < 600; ms += 7) {
    const SimTime now = SimTime::Millis(ms);
    EXPECT_EQ(a.DropMessage(site, ms, now), b.DropMessage(site, ms, now));
    EXPECT_EQ(a.ExtraLatency(site, now), b.ExtraLatency(site, now));
    EXPECT_EQ(a.ComputeFactor(1, now), b.ComputeFactor(1, now));
    EXPECT_EQ(a.ShardFactor(0, now), b.ShardFactor(0, now));
  }
}

TEST(FaultPlanTest, ChaosEpisodesMatchConfigAndFitHorizon) {
  const FaultPlanConfig cfg = FaultPlanConfig::Chaos(3);
  const FaultPlan plan(cfg);
  const int expected = cfg.drop_episodes + cfg.latency_episodes + cfg.link_down_episodes +
                       cfg.straggler_episodes + cfg.shard_slow_episodes;
  EXPECT_EQ(static_cast<int>(plan.episodes().size()), expected);
  for (const FaultEpisode& ep : plan.episodes()) {
    EXPECT_GE(ep.start.nanos(), 0);
    EXPECT_LT(ep.start, ep.end);
    EXPECT_LE(ep.end, cfg.horizon);
  }
}

TEST(FaultPlanTest, QuietAfterHorizon) {
  const FaultPlan plan(FaultPlanConfig::Chaos(11));
  const SimTime later = plan.config().horizon + SimTime::Millis(1);
  const uint64_t site = FaultPlan::HashSite("shard1.out");
  for (uint64_t msg = 0; msg < 200; ++msg) {
    EXPECT_FALSE(plan.DropMessage(site, msg, later));
  }
  EXPECT_EQ(plan.ExtraLatency(site, later), SimTime());
  for (int w = 0; w < 8; ++w) {
    EXPECT_EQ(plan.ComputeFactor(w, later), 1.0);
    EXPECT_EQ(plan.ShardFactor(w, later), 1.0);
  }
}

TEST(FaultPlanTest, DifferentSeedsProduceDifferentPlans) {
  const FaultPlan a(FaultPlanConfig::Chaos(1));
  const FaultPlan b(FaultPlanConfig::Chaos(2));
  ASSERT_EQ(a.episodes().size(), b.episodes().size());
  bool any_difference = false;
  for (size_t i = 0; i < a.episodes().size(); ++i) {
    any_difference |= a.episodes()[i].start != b.episodes()[i].start;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlanTest, DefaultConfigInjectsNothing) {
  const FaultPlanConfig cfg;  // zero episodes of every kind
  EXPECT_TRUE(cfg.empty());
  const FaultPlan plan(cfg);
  EXPECT_TRUE(plan.episodes().empty());
  const uint64_t site = FaultPlan::HashSite("worker0.up");
  for (int ms = 0; ms < 100; ms += 3) {
    EXPECT_FALSE(plan.DropMessage(site, ms, SimTime::Millis(ms)));
    EXPECT_EQ(plan.ExtraLatency(site, SimTime::Millis(ms)), SimTime());
    EXPECT_EQ(plan.ComputeFactor(0, SimTime::Millis(ms)), 1.0);
  }
}

// ---- FaultInjector --------------------------------------------------------

// One certain-drop window covering [0, len) on every site.
FaultPlanConfig CertainDropPlan(SimTime len) {
  FaultPlanConfig cfg;
  cfg.seed = 5;
  cfg.horizon = len;
  cfg.site_prob = 1.0;
  cfg.drop_episodes = 1;
  cfg.drop_prob = 1.0;
  cfg.drop_len = len;
  return cfg;
}

TEST(FaultInjectorTest, CountsDropsAndMessages) {
  Simulator sim;
  FaultInjector faults(CertainDropPlan(SimTime::Millis(10)), &sim);
  const uint64_t site = FaultPlan::HashSite("worker0.up");
  const FaultInjector::MessageFault fate = faults.OnMessageSend(site);
  EXPECT_TRUE(fate.drop);
  EXPECT_EQ(faults.stats().messages_seen, 1u);
  EXPECT_EQ(faults.stats().drops_injected, 1u);
  EXPECT_TRUE(faults.stats().any_injected());
}

TEST(FaultInjectorTest, ExportsPlanToTrace) {
  Simulator sim;
  TraceRecorder trace;
  FaultInjector faults(FaultPlanConfig::Chaos(1), &sim, &trace);
  const std::vector<std::string> tracks = trace.Tracks();
  bool has_plan_track = false;
  for (const std::string& track : tracks) {
    has_plan_track |= track == "faults/plan";
  }
  EXPECT_TRUE(has_plan_track);
}

// ---- SchedulerCore recovery ----------------------------------------------

// Backend that swallows the first `fail_first` start callbacks (the message
// is "lost"), keeping them around so tests can fire them late.
class FlakyBackend : public CommBackend {
 public:
  explicit FlakyBackend(int fail_first) : fail_first_(fail_first) {}

  void Start(const SubCommTask& subtask, std::function<void()> on_finish) override {
    started.push_back(subtask);
    if (static_cast<int>(started.size()) <= fail_first_) {
      swallowed.push_back(std::move(on_finish));
      return;
    }
    pending.push_back(std::move(on_finish));
  }

  void FinishOldest() {
    ASSERT_FALSE(pending.empty());
    auto cb = std::move(pending.front());
    pending.pop_front();
    cb();
  }

  std::vector<SubCommTask> started;
  std::vector<std::function<void()>> swallowed;
  std::deque<std::function<void()>> pending;

 private:
  int fail_first_;
};

SchedulerConfig WholeTensors(Bytes credit) {
  return SchedulerConfig::ByteScheduler(SchedulerConfig::kNoPartition, credit);
}

// A plan that injects nothing and carries only the recovery policy: a Core
// given its injector arms timeout/retry recovery with these knobs.
FaultPlanConfig RetryPlan(SimTime timeout, double backoff = 2.0, int max_retries = 12) {
  FaultPlanConfig cfg;
  cfg.retry_timeout = timeout;
  cfg.retry_backoff = backoff;
  cfg.max_retries = max_retries;
  return cfg;
}

CommTaskDesc PushDesc(int layer, Bytes bytes) {
  CommTaskDesc desc;
  desc.layer = layer;
  desc.tensor_bytes = bytes;
  desc.type = CommOpType::kPush;
  desc.name = "t" + std::to_string(layer);
  return desc;
}

TEST(CoreRecoveryTest, TimeoutRestoresCreditAndRetries) {
  Simulator sim;
  FaultInjector faults(RetryPlan(SimTime::Millis(10)), &sim);
  FlakyBackend backend(/*fail_first=*/1);
  SchedulerCore core(WholeTensors(MiB(1)), &backend, 0, &sim, &faults);

  bool finished = false;
  CommTaskDesc desc = PushDesc(0, KiB(256));
  desc.on_finish = [&] { finished = true; };
  core.NotifyReady(core.Enqueue(std::move(desc)));
  ASSERT_EQ(backend.started.size(), 1u);
  EXPECT_EQ(core.credit(), core.credit_cap() - KiB(256));

  // The first attempt's message was lost; the timeout requeues and restarts.
  sim.Run(SimTime::Millis(10));
  EXPECT_EQ(core.timeouts_fired(), 1u);
  EXPECT_EQ(core.retries(), 1u);
  ASSERT_EQ(backend.started.size(), 2u);
  EXPECT_EQ(core.credit(), core.credit_cap() - KiB(256));  // re-charged for attempt 2
  EXPECT_FALSE(finished);

  backend.FinishOldest();
  sim.Run();  // drains the cancelled attempt-2 timer
  EXPECT_TRUE(finished);
  EXPECT_EQ(core.credit(), core.credit_cap());
  EXPECT_EQ(core.subtasks_in_flight(), 0u);
  EXPECT_EQ(core.tasks_finished(), 1u);
}

TEST(CoreRecoveryTest, LateCompletionOfTimedOutAttemptIsIgnored) {
  Simulator sim;
  FaultInjector faults(RetryPlan(SimTime::Millis(10)), &sim);
  FlakyBackend backend(/*fail_first=*/1);
  SchedulerCore core(WholeTensors(MiB(1)), &backend, 0, &sim, &faults);

  int finish_count = 0;
  CommTaskDesc desc = PushDesc(0, KiB(256));
  desc.on_finish = [&] { ++finish_count; };
  core.NotifyReady(core.Enqueue(std::move(desc)));
  sim.Run(SimTime::Millis(10));  // attempt 1 times out, attempt 2 in flight
  ASSERT_EQ(backend.started.size(), 2u);

  // The "lost" message turns out merely delayed: its completion must not
  // finish the partition or leak credit.
  ASSERT_EQ(backend.swallowed.size(), 1u);
  backend.swallowed[0]();
  EXPECT_EQ(core.late_completions(), 1u);
  EXPECT_EQ(finish_count, 0);
  EXPECT_EQ(core.credit(), core.credit_cap() - KiB(256));

  backend.FinishOldest();
  sim.Run();
  EXPECT_EQ(finish_count, 1);
  EXPECT_EQ(core.credit(), core.credit_cap());
}

TEST(CoreRecoveryTest, LateCompletionAfterItsTaskSlotWasReused) {
  Simulator sim;
  FaultInjector faults(RetryPlan(SimTime::Millis(10)), &sim);
  FlakyBackend backend(/*fail_first=*/1);
  SchedulerCore core(WholeTensors(MiB(1)), &backend, 0, &sim, &faults);

  // Task A's first attempt is lost and times out; its retry finishes A.
  core.NotifyReady(core.Enqueue(PushDesc(0, KiB(256))));
  sim.Run(SimTime::Millis(10));
  backend.FinishOldest();
  ASSERT_EQ(core.tasks_finished(), 1u);

  // Task B takes A's pool slot, and its partition 0 is in flight on its
  // first attempt, as A's lost one was.
  bool b_finished = false;
  CommTaskDesc desc = PushDesc(1, KiB(128));
  desc.on_finish = [&] { b_finished = true; };
  core.NotifyReady(core.Enqueue(std::move(desc)));
  ASSERT_EQ(backend.started.size(), 3u);
  const Bytes credit = core.credit();
  EXPECT_EQ(credit, core.credit_cap() - KiB(128));

  // A's lost attempt was only delayed. Its completion names finished task A,
  // not whichever task holds A's slot now.
  ASSERT_EQ(backend.swallowed.size(), 1u);
  backend.swallowed[0]();
  EXPECT_EQ(core.late_completions(), 1u);
  EXPECT_FALSE(b_finished);
  EXPECT_EQ(core.credit(), credit);

  backend.FinishOldest();
  sim.Run();
  EXPECT_TRUE(b_finished);
  EXPECT_EQ(core.credit(), core.credit_cap());
}

TEST(CoreRecoveryDeathTest, AbortsAfterRetryBudget) {
  // Nothing ever completes: the initial attempt and both retries time out,
  // and the exhausted budget stops the run rather than leak the partition.
  EXPECT_DEATH(
      {
        Simulator sim;
        FaultInjector faults(RetryPlan(SimTime::Millis(1), /*backoff=*/1.0,
                                       /*max_retries=*/2),
                             &sim);
        FlakyBackend backend(/*fail_first=*/1000);
        SchedulerCore core(WholeTensors(MiB(1)), &backend, 0, &sim, &faults);
        core.NotifyReady(core.Enqueue(PushDesc(3, KiB(64))));
        sim.Run();
      },
      "subtask exhausted its retry budget");
}

TEST(CoreRecoveryTest, RetryKeepsOriginalPriorityOverNewerArrivals) {
  Simulator sim;
  FaultInjector faults(RetryPlan(SimTime::Millis(10)), &sim);
  FlakyBackend backend(/*fail_first=*/1);
  // Credit admits exactly one 256 KiB subtask at a time.
  SchedulerCore core(WholeTensors(KiB(256)), &backend, 0, &sim, &faults);

  core.NotifyReady(core.Enqueue(PushDesc(0, KiB(256))));
  core.NotifyReady(core.Enqueue(PushDesc(1, KiB(256))));  // queued behind layer 0
  ASSERT_EQ(backend.started.size(), 1u);
  EXPECT_EQ(backend.started[0].layer, 0);

  sim.Run(SimTime::Millis(10));  // layer 0 times out and is requeued
  // The retry must beat the younger layer-1 subtask: original priority key.
  ASSERT_EQ(backend.started.size(), 2u);
  EXPECT_EQ(backend.started[1].layer, 0);

  backend.FinishOldest();  // layer 0 retry completes; layer 1 admitted
  ASSERT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(backend.started[2].layer, 1);
  backend.FinishOldest();
  sim.Run();
  EXPECT_EQ(core.credit(), core.credit_cap());
  EXPECT_EQ(core.tasks_finished(), 2u);
}

TEST(CoreRecoveryTest, DisabledRecoveryKeepsLegacyBehaviour) {
  FlakyBackend backend(/*fail_first=*/0);
  // No Simulator, no FaultInjector: the pre-recovery code path.
  SchedulerCore core(WholeTensors(MiB(1)), &backend);
  bool finished = false;
  CommTaskDesc desc = PushDesc(0, KiB(128));
  desc.on_finish = [&] { finished = true; };
  core.NotifyReady(core.Enqueue(std::move(desc)));
  backend.FinishOldest();
  EXPECT_TRUE(finished);
  EXPECT_EQ(core.timeouts_fired(), 0u);
  EXPECT_EQ(core.subtasks_in_flight(), 0u);
}

// ---- PS backend push retransmission ---------------------------------------

PsConfig OneWorkerPs(FaultInjector* faults) {
  PsConfig cfg;
  cfg.num_workers = 1;
  cfg.num_shards = 1;
  cfg.faults = faults;
  return cfg;
}

SubCommTask OnePush() {
  SubCommTask push;
  push.worker = 0;
  push.layer = 0;
  push.tensor_id = 0;
  push.bytes = KiB(64);
  push.type = CommOpType::kPush;
  return push;
}

TEST(PsRetransmitTest, LostPushDataLegIsRetransmittedAndDeduped) {
  Simulator sim;
  // Drops are certain inside [0, 1 ms); the 2 ms ack timeout retransmits
  // after the window, so exactly one retransmission succeeds.
  FaultPlanConfig plan = CertainDropPlan(SimTime::Millis(1));
  plan.retry_timeout = SimTime::Millis(2);
  FaultInjector faults(plan, &sim);
  PsBackend ps(&sim, OneWorkerPs(&faults));

  int aggregations = 0;
  ps.AddAggregationListener([&](int64_t, int, int) { ++aggregations; });

  const SubCommTask push = OnePush();
  bool push_acked = false;
  ps.Start(push, [&] { push_acked = true; });
  sim.Run();

  EXPECT_TRUE(push_acked);  // sender flush succeeded despite the lost data leg
  EXPECT_EQ(ps.push_retransmits(), 1u);
  EXPECT_EQ(faults.stats().backend_retransmits, 1u);
  EXPECT_EQ(aggregations, 1);  // aggregated exactly once
  EXPECT_NE(ps.DebugString().find("unacked_pushes=0"), std::string::npos);

  // The recovered parameters are pullable.
  SubCommTask pull = push;
  pull.type = CommOpType::kPull;
  bool pulled = false;
  ps.Start(pull, [&] { pulled = true; });
  sim.Run();
  EXPECT_TRUE(pulled);
}

TEST(PsRetransmitDeathTest, AbortsAfterRetransmitBudget) {
  // Every message is lost for 50 ms, while the original and both
  // retransmits leave by 6 ms (2 ms timeout, backoff 2): the third ack
  // timeout finds the budget spent.
  EXPECT_DEATH(
      {
        Simulator sim;
        FaultPlanConfig plan = CertainDropPlan(SimTime::Millis(50));
        plan.retry_timeout = SimTime::Millis(2);
        plan.max_retries = 2;
        FaultInjector faults(plan, &sim);
        PsBackend ps(&sim, OneWorkerPs(&faults));
        ps.Start(OnePush(), [] {});
        sim.Run();
      },
      "push data leg exhausted its retransmit budget");
}

TEST(PsRetransmitTest, DelayedNotifyCancelsTheAckAtArrival) {
  // 1 GB/s ideal links: a 1 MB push flushes at 1 ms (its ack timer arms
  // then) and reaches the shard at 2 ms; the 1 ms update ends at 3 ms. The
  // 1.5 ms timeout ends at 2.5 ms, inside [arrival, arrival +
  // control_latency): an ack cancel delivered control_latency after the
  // arrival would let it fire once, spuriously. The cancel runs at the
  // arrival, so nothing is retransmitted; delayed_notify still delays the
  // aggregation notification by control_latency.
  Simulator sim;
  FaultInjector faults(RetryPlan(SimTime::Micros(1500)), &sim);
  PsConfig cfg = OneWorkerPs(&faults);
  cfg.link_rate = Bandwidth::Gbps(8);
  cfg.transport = TransportModel::Ideal();
  cfg.update_bytes_per_sec = 1e9;
  cfg.update_fixed_overhead = SimTime();
  cfg.control_latency = SimTime::Millis(1);
  cfg.delayed_notify = true;
  PsBackend ps(&sim, cfg);
  std::vector<SimTime> notified;
  ps.AddAggregationListener([&](int64_t, int, int worker) {
    EXPECT_EQ(worker, 0);
    notified.push_back(sim.Now());
  });

  SubCommTask push = OnePush();
  push.bytes = 1'000'000;
  ps.Start(push, [] {});
  sim.Run();

  EXPECT_EQ(ps.push_retransmits(), 0u);
  EXPECT_EQ(faults.stats().backend_retransmits, 0u);
  EXPECT_NE(ps.DebugString().find("unacked_pushes=0"), std::string::npos);
  EXPECT_EQ(notified, std::vector<SimTime>{SimTime::Millis(4)});
}

// ---- chaos invariant grid -------------------------------------------------

// Compressed chaos plan matched to the harness's ~10 ms of simulated traffic.
FaultPlanConfig HarnessChaos(uint64_t seed) {
  FaultPlanConfig cfg;
  cfg.seed = seed;
  cfg.horizon = SimTime::Millis(10);
  cfg.site_prob = 0.7;
  cfg.drop_episodes = 3;
  cfg.drop_prob = 0.4;
  cfg.drop_len = SimTime::Millis(2);
  cfg.latency_episodes = 3;
  cfg.latency_spike = SimTime::Micros(200);
  cfg.latency_len = SimTime::Millis(3);
  cfg.link_down_episodes = 2;
  cfg.link_down_len = SimTime::Millis(1);
  cfg.shard_slow_episodes = 2;
  cfg.shard_slow_factor = 4.0;
  cfg.shard_slow_len = SimTime::Millis(2);
  cfg.retry_timeout = SimTime::Millis(2);
  return cfg;
}

struct HarnessOutcome {
  int pulls_finished = 0;
  FaultStats stats;
};

// Two Cores pushing/pulling through a real PsBackend under a fault plan.
// Pull partitions are released by the shard-side aggregation listener, as in
// the real runtime. Verifies the scheduler invariants on drain.
HarnessOutcome RunPsChaosHarness(const FaultPlanConfig& plan_cfg, int rounds) {
  constexpr int kWorkers = 2;
  constexpr int kLayers = 4;
  const Bytes bytes = KiB(300);

  Simulator sim;
  FaultInjector faults(plan_cfg, &sim);
  PsConfig ps_cfg;
  ps_cfg.num_workers = kWorkers;
  ps_cfg.num_shards = 2;
  ps_cfg.synchronous = true;
  ps_cfg.faults = &faults;
  PsBackend ps(&sim, ps_cfg);

  const SchedulerConfig sched = SchedulerConfig::ByteScheduler(KiB(128), KiB(512));
  std::vector<std::unique_ptr<SchedulerCore>> cores;
  for (int w = 0; w < kWorkers; ++w) {
    cores.push_back(std::make_unique<SchedulerCore>(sched, &ps, w, &sim, &faults));
  }

  std::vector<std::vector<CommTaskId>> pull_ids(kWorkers,
                                                std::vector<CommTaskId>(kLayers, kInvalidCommTask));
  ps.AddAggregationListener([&](int64_t tensor_id, int partition, int w) {
    const CommTaskId id = pull_ids[w][tensor_id];
    if (id != kInvalidCommTask) {
      cores[w]->NotifyReadyPartition(id, partition);
    }
  });

  HarnessOutcome out;
  int finished_this_round = 0;
  std::function<void(int)> start_round = [&](int round) {
    if (round == rounds) {
      return;
    }
    finished_this_round = 0;
    for (int w = 0; w < kWorkers; ++w) {
      for (int layer = 0; layer < kLayers; ++layer) {
        CommTaskDesc pull;
        pull.worker = w;
        pull.layer = layer;
        pull.tensor_bytes = bytes;
        pull.type = CommOpType::kPull;
        pull.tensor_id = layer;
        pull.name = "t" + std::to_string(layer) + ".pull";
        pull.on_finish = [&, round] {
          ++out.pulls_finished;
          if (++finished_this_round == kWorkers * kLayers) {
            start_round(round + 1);
          }
        };
        pull_ids[w][layer] = cores[w]->Enqueue(std::move(pull));

        CommTaskDesc push;
        push.worker = w;
        push.layer = layer;
        push.tensor_bytes = bytes;
        push.type = CommOpType::kPush;
        push.tensor_id = layer;
        push.name = "t" + std::to_string(layer) + ".push";
        cores[w]->NotifyReady(cores[w]->Enqueue(std::move(push)));
      }
    }
  };
  start_round(0);
  sim.Run();

  EXPECT_EQ(out.pulls_finished, rounds * kWorkers * kLayers);
  for (const auto& core : cores) {
    // Credit conservation: everything charged was restored on finish or
    // timeout, and nothing is left queued or in flight.
    EXPECT_EQ(core->credit(), core->credit_cap()) << core->DebugString();
    EXPECT_EQ(core->queue_length(), 0u) << core->DebugString();
    EXPECT_EQ(core->subtasks_in_flight(), 0u) << core->DebugString();
    EXPECT_EQ(core->subtasks_abandoned(), 0u) << core->DebugString();
  }
  EXPECT_TRUE(sim.Empty());
  EXPECT_NE(ps.DebugString().find("unacked_pushes=0"), std::string::npos);
  out.stats = faults.stats();
  return out;
}

// The seed x plan grids run complete, independent harness instances, so the
// chaos suite sweeps them concurrently (results collected in seed order).

TEST(ChaosInvariantTest, MixedPlansAcrossTwentySeeds) {
  const std::vector<HarnessOutcome> outcomes = ParallelFor(20, [](size_t i) {
    SCOPED_TRACE("seed=" + std::to_string(i + 1));
    return RunPsChaosHarness(HarnessChaos(i + 1), /*rounds=*/40);
  });
  uint64_t total_injected = 0;
  uint64_t total_recoveries = 0;
  for (const HarnessOutcome& out : outcomes) {
    total_injected += out.stats.drops_injected + out.stats.delays_injected +
                      out.stats.shard_slowdowns;
    total_recoveries += out.stats.core_timeouts + out.stats.backend_retransmits;
  }
  // The grid as a whole must actually exercise injection and recovery.
  EXPECT_GT(total_injected, 0u);
  EXPECT_GT(total_recoveries, 0u);
}

FaultPlanConfig DropHeavyPlan(uint64_t seed) {
  FaultPlanConfig cfg;
  cfg.seed = seed;
  cfg.horizon = SimTime::Millis(10);
  cfg.site_prob = 1.0;
  cfg.drop_episodes = 4;
  cfg.drop_prob = 0.8;
  cfg.drop_len = SimTime::Millis(2);
  cfg.retry_timeout = SimTime::Millis(2);
  return cfg;
}

TEST(ChaosInvariantTest, DropHeavyPlan) {
  const std::vector<HarnessOutcome> outcomes = ParallelFor(5, [](size_t i) {
    SCOPED_TRACE("seed=" + std::to_string(100 + i));
    return RunPsChaosHarness(DropHeavyPlan(100 + i), /*rounds=*/40);
  });
  uint64_t total_drops = 0;
  for (const HarnessOutcome& out : outcomes) {
    total_drops += out.stats.drops_injected;
  }
  EXPECT_GT(total_drops, 0u);
}

TEST(ChaosInvariantTest, LatencyAndLinkDownOnlyPlan) {
  const std::vector<HarnessOutcome> outcomes = ParallelFor(5, [](size_t i) {
    SCOPED_TRACE("seed=" + std::to_string(200 + i));
    FaultPlanConfig cfg;
    cfg.seed = 200 + i;
    cfg.horizon = SimTime::Millis(10);
    cfg.site_prob = 1.0;
    cfg.latency_episodes = 4;
    cfg.latency_spike = SimTime::Micros(400);
    cfg.latency_len = SimTime::Millis(3);
    cfg.link_down_episodes = 3;
    cfg.link_down_len = SimTime::Millis(1);
    cfg.retry_timeout = SimTime::Millis(4);
    return RunPsChaosHarness(cfg, /*rounds=*/40);
  });
  for (const HarnessOutcome& out : outcomes) {
    EXPECT_EQ(out.stats.drops_injected, 0u);
  }
}

TEST(ChaosInvariantTest, ParallelGridMatchesSerialGrid) {
  constexpr size_t kSeeds = 6;
  const auto sweep = [](int jobs) {
    return ParallelFor(
        kSeeds, [](size_t i) { return RunPsChaosHarness(HarnessChaos(i + 1), /*rounds=*/20); },
        jobs);
  };
  const std::vector<HarnessOutcome> serial = sweep(1);
  const std::vector<HarnessOutcome> parallel = sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].pulls_finished, parallel[i].pulls_finished) << i;
    EXPECT_EQ(serial[i].stats.messages_seen, parallel[i].stats.messages_seen) << i;
    EXPECT_EQ(serial[i].stats.drops_injected, parallel[i].stats.drops_injected) << i;
    EXPECT_EQ(serial[i].stats.delays_injected, parallel[i].stats.delays_injected) << i;
    EXPECT_EQ(serial[i].stats.core_timeouts, parallel[i].stats.core_timeouts) << i;
    EXPECT_EQ(serial[i].stats.backend_retransmits, parallel[i].stats.backend_retransmits) << i;
  }
}

// ---- uplink runs, with and without faults -------------------------------

// Hands every flight to the PS through Start, whose completions are
// std::functions under distinct ids, so no push flight continues another:
// each push partition is its own uplink entry.
class StartOnlyBackend : public CommBackend {
 public:
  explicit StartOnlyBackend(PsBackend* ps) : ps_(ps) {}
  void Start(const SubCommTask& subtask, std::function<void()> on_finish) override {
    ps_->Start(subtask, std::move(on_finish));
  }

 private:
  PsBackend* ps_;
};

struct PsMixRun {
  // (worker, layer, partition, finish time in ns) of every pull partition.
  std::vector<std::tuple<int, int, int, int64_t>> pulled;
  uint64_t events = 0;
  uint64_t subtasks_started = 0;
  uint64_t link_entries = 0;
  uint64_t push_retransmits = 0;
  uint64_t late_completions = 0;
  uint64_t core_retries = 0;
};

// One randomized synchronous-PS iteration: every worker's Core pushes each
// layer's gradient when its backward step readies it and pulls each
// partition once it is pushed, under random credit, partition size, policy,
// worker and shard counts. `merged` lets the Cores hand their flights to
// the PS directly, so a task's consecutive push partitions share one uplink
// entry; otherwise each partition is its own. With `plan`, the Cores and the
// PS share a FaultInjector running it.
PsMixRun RunPsMix(uint64_t seed, bool merged, const FaultPlanConfig* plan = nullptr) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](uint64_t n) { return static_cast<int>(rng() % n); };
  const int workers = 1 + pick(3);
  const Bytes partition = KiB(4) * (1 + pick(8));
  const Bytes credits[] = {partition, partition * (2 + pick(6)), partition / 2 + 1,
                           SchedulerConfig::kUnlimited};
  SchedulerConfig config = SchedulerConfig::ByteScheduler(partition, credits[pick(4)]);
  if (pick(3) == 0) {
    config.policy = SchedulerConfig::Policy::kFifo;
  }
  Simulator sim;
  std::unique_ptr<FaultInjector> faults;
  if (plan != nullptr) {
    faults = std::make_unique<FaultInjector>(*plan, &sim);
  }
  PsConfig ps_config;
  ps_config.num_workers = workers;
  ps_config.num_shards = 1 + pick(3);
  ps_config.link_rate = Bandwidth::Gbps(1 + pick(25));
  ps_config.control_latency = SimTime::Micros(pick(20));
  ps_config.faults = faults.get();
  PsBackend ps(&sim, ps_config);
  StartOnlyBackend start_only(&ps);
  PsMixRun run;
  std::vector<std::unique_ptr<SchedulerCore>> cores;
  const int layers = 3 + pick(6);
  std::vector<Bytes> sizes;
  for (int l = 0; l < layers; ++l) {
    sizes.push_back(1 + static_cast<Bytes>(rng() % static_cast<uint64_t>(9 * partition)));
  }
  for (int w = 0; w < workers; ++w) {
    cores.push_back(std::make_unique<SchedulerCore>(
        config, merged ? static_cast<CommBackend*>(&ps) : &start_only, w, &sim, faults.get()));
    SchedulerCore& core = *cores.back();
    for (int l = layers - 1; l >= 0; --l) {
      CommTaskDesc pull_desc = PushDesc(l, sizes[l]);
      pull_desc.type = CommOpType::kPull;
      pull_desc.worker = w;
      pull_desc.on_partition_finish = [&run, &sim, w, l](int p) {
        run.pulled.emplace_back(w, l, p, sim.Now().nanos());
      };
      const CommTaskId pull = core.Enqueue(std::move(pull_desc));
      CommTaskDesc push_desc = PushDesc(l, sizes[l]);
      push_desc.worker = w;
      push_desc.on_partition_finish = [&core, pull](int p) { core.NotifyReadyPartition(pull, p); };
      const CommTaskId push = core.Enqueue(std::move(push_desc));
      // Backward reaches layer l after a random compute step.
      sim.Schedule(SimTime::Micros(pick(40) * (layers - l)),
                   [&core, push] { core.NotifyReady(push); });
    }
  }
  sim.Run();
  run.events = sim.processed_events();
  for (const auto& core : cores) {
    EXPECT_EQ(core->tasks_finished(), static_cast<uint64_t>(2 * layers));
    EXPECT_EQ(core->credit(), core->credit_cap());
    run.subtasks_started += core->subtasks_started();
    run.late_completions += core->late_completions();
    run.core_retries += core->retries();
  }
  run.link_entries = ps.peak_link_entries();
  run.push_retransmits = ps.push_retransmits();
  return run;
}

// A plan that drops and delays messages over the few milliseconds a
// RunPsMix iteration takes. Its Core retry timeout stays at the default
// 25 ms: at 2 ms a Core retry of a push whose first copy the shard already
// accepted runs the PS retransmit budget out and aborts (a known defect,
// ROADMAP.md item 2).
FaultPlanConfig MixFaults(uint64_t seed) {
  FaultPlanConfig cfg;
  cfg.seed = seed;
  cfg.horizon = SimTime::Millis(4);
  cfg.site_prob = 0.8;
  cfg.drop_episodes = 2;
  cfg.drop_prob = 0.5;
  cfg.drop_len = SimTime::Millis(1);
  cfg.latency_episodes = 2;
  cfg.latency_spike = SimTime::Micros(100);
  cfg.latency_len = SimTime::Millis(1);
  return cfg;
}

// Runs `seeds` mixes with direct flights and with one uplink entry per
// partition: they must admit, send and finish alike, and merged runs never
// hold more link entries (in sum, fewer). Returns the merged runs' summed
// counts.
PsMixRun ExpectUplinkRunsMatch(uint64_t seeds, bool faults) {
  PsMixRun total;
  uint64_t separate_entries = 0;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FaultPlanConfig plan = MixFaults(seed);
    const FaultPlanConfig* plan_or_null = faults ? &plan : nullptr;
    const PsMixRun separate = RunPsMix(seed, /*merged=*/false, plan_or_null);
    const PsMixRun merged = RunPsMix(seed, /*merged=*/true, plan_or_null);
    EXPECT_EQ(merged.pulled, separate.pulled);
    EXPECT_EQ(merged.events, separate.events);
    EXPECT_EQ(merged.subtasks_started, separate.subtasks_started);
    EXPECT_EQ(merged.push_retransmits, separate.push_retransmits);
    EXPECT_EQ(merged.late_completions, separate.late_completions);
    EXPECT_EQ(merged.core_retries, separate.core_retries);
    EXPECT_LE(merged.link_entries, separate.link_entries);
    total.link_entries += merged.link_entries;
    total.push_retransmits += merged.push_retransmits;
    total.late_completions += merged.late_completions;
    total.core_retries += merged.core_retries;
    separate_entries += separate.link_entries;
  }
  // Credit above one partition queues runs of a task's partitions.
  EXPECT_LT(total.link_entries, separate_entries);
  return total;
}

TEST(SchedulerCoreFlightTest, PsUplinkRunsMatchOneEntryPerPartition) {
  ExpectUplinkRunsMatch(200, /*faults=*/false);
}

// With faults a task's first attempts still complete under contiguous tags,
// so they merge on the uplink, while retransmitted legs and retries go
// their own way.
TEST(SchedulerCoreFlightTest, PsUplinkRunsMatchOneEntryPerPartitionUnderFaults) {
  const PsMixRun total = ExpectUplinkRunsMatch(200, /*faults=*/true);
  // The plans must actually exercise recovery on both layers.
  EXPECT_GT(total.push_retransmits, 0u);
  EXPECT_GT(total.core_retries, 0u);
}

// ---- end-to-end chaos jobs ------------------------------------------------

JobConfig ChaosJobConfig(const Setup& setup, uint64_t seed, bool ps_async = false) {
  JobConfig job;
  job.model = Vgg16();
  job.setup = setup;
  job.mode = SchedMode::kByteScheduler;
  job.num_machines = 2;
  job.bandwidth = Bandwidth::Gbps(100);
  job.warmup_iters = 1;
  job.measure_iters = 2;
  job.ps_async = ps_async;
  const TunedParams tuned =
      DefaultTunedParams(job.model, setup.arch, setup.transport, job.bandwidth);
  job.partition_bytes = tuned.partition_bytes;
  job.credit_bytes = tuned.credit_bytes;
  FaultPlanConfig chaos = FaultPlanConfig::Chaos(seed);
  chaos.horizon = SimTime::Millis(150);
  job.chaos = chaos;
  return job;
}

void ExpectRecovered(const JobResult& result) {
  EXPECT_GT(result.samples_per_sec, 0.0);
  EXPECT_EQ(result.subtasks_abandoned, 0u);
  EXPECT_GT(result.fault_stats.messages_seen, 0u);
}

TEST(ChaosEndToEndTest, MxnetPsSynchronous) {
  const JobResult result = RunTrainingJob(ChaosJobConfig(Setup::MxnetPsRdma(), 1));
  ExpectRecovered(result);
  EXPECT_TRUE(result.fault_stats.any_injected());
}

TEST(ChaosEndToEndTest, MxnetPsAsynchronous) {
  const JobResult result =
      RunTrainingJob(ChaosJobConfig(Setup::MxnetPsRdma(), 2, /*ps_async=*/true));
  ExpectRecovered(result);
}

TEST(ChaosEndToEndTest, TensorFlowBarrierPs) {
  const JobResult result = RunTrainingJob(ChaosJobConfig(Setup::TensorFlowPsTcp(), 3));
  ExpectRecovered(result);
}

TEST(ChaosEndToEndTest, PyTorchAllReduce) {
  uint64_t drops = 0;
  uint64_t timeouts = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const JobResult result = RunTrainingJob(ChaosJobConfig(Setup::PyTorchNcclTcp(), seed));
    ExpectRecovered(result);
    drops += result.fault_stats.drops_injected;
    timeouts += result.fault_stats.core_timeouts;
  }
  // Every dropped collective launch must be recovered by a Core timeout
  // (all-reduce has no backend-level retransmission).
  EXPECT_GE(timeouts, drops);
}

TEST(ChaosEndToEndTest, FaultTracksAppearInTrace) {
  TraceRecorder trace;
  JobConfig job = ChaosJobConfig(Setup::MxnetPsRdma(), 4);
  job.trace = &trace;
  const JobResult result = RunTrainingJob(job);
  ExpectRecovered(result);
  bool has_plan = false;
  bool has_injected = false;
  for (const std::string& track : trace.Tracks()) {
    has_plan |= track == "faults/plan";
    has_injected |= track == "faults/injected";
  }
  EXPECT_TRUE(has_plan);
  EXPECT_EQ(has_injected, result.fault_stats.any_injected());
}

// Every injected fault and every recovery leaves one instant on its trace
// track, and the instant names keep their format.
TEST(ChaosEndToEndTest, FaultInstantsMatchTheLedger) {
  TraceRecorder trace;
  JobConfig job = ChaosJobConfig(Setup::MxnetPsRdma(), 7);
  job.trace = &trace;
  const JobResult result = RunTrainingJob(job);
  ExpectRecovered(result);
  std::ostringstream os;
  trace.WriteChromeTrace(os);
  obs::JsonValue events;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(os.str(), &events, &error)) << error;

  std::map<int64_t, std::string> tracks;  // tid -> track name
  for (const obs::JsonValue& ev : events.array) {
    if (ev.Find("ph")->str == "M") {
      tracks[ev.Find("tid")->IntOr(-1)] = ev.Find("args")->Find("name")->str;
    }
  }
  const std::vector<std::pair<std::string, std::regex>> kinds = {
      {"faults/injected", std::regex("drop")},
      {"faults/injected", std::regex(R"(delay\+[0-9.]+(ns|us|ms|s))")},
      {"faults/injected", std::regex(R"(straggler w[0-9]+)")},
      {"faults/injected", std::regex(R"(shard_slow s[0-9]+)")},
      {"faults/recovery", std::regex(R"(timeout w[0-9]+ L[0-9]+\.p[0-9]+ #[0-9]+)")},
      {"faults/recovery", std::regex(R"(retransmit w[0-9]+ L[0-9]+\.p[0-9]+ #[0-9]+)")},
  };
  std::vector<uint64_t> counts(kinds.size(), 0);
  for (const obs::JsonValue& ev : events.array) {
    if (ev.Find("ph")->str != "i") {
      continue;
    }
    const std::string& track = tracks[ev.Find("tid")->IntOr(-1)];
    const std::string& name = ev.Find("name")->str;
    size_t k = 0;
    while (k < kinds.size() &&
           !(kinds[k].first == track && std::regex_match(name, kinds[k].second))) {
      ++k;
    }
    ASSERT_LT(k, kinds.size()) << "unexpected instant '" << name << "' on " << track;
    ++counts[k];
  }
  const FaultStats& stats = result.fault_stats;
  EXPECT_EQ(counts[0], stats.drops_injected);
  EXPECT_EQ(counts[1], stats.delays_injected);
  EXPECT_EQ(counts[2], stats.compute_slowdowns);
  EXPECT_EQ(counts[3], stats.shard_slowdowns);
  EXPECT_EQ(counts[4], stats.core_timeouts);
  EXPECT_EQ(counts[5], stats.backend_retransmits);
  EXPECT_GT(stats.drops_injected, 0u);
  EXPECT_GT(stats.delays_injected, 0u);
}

// ---- determinism & zero-cost regressions ----------------------------------

TEST(ChaosDeterminismTest, SameSeedSamePlanIsBitIdentical) {
  const JobConfig job = ChaosJobConfig(Setup::MxnetPsRdma(), 7);
  const JobResult a = RunTrainingJob(job);
  const JobResult b = RunTrainingJob(job);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.avg_iter_time, b.avg_iter_time);
  ASSERT_EQ(a.iter_end_times.size(), b.iter_end_times.size());
  for (size_t i = 0; i < a.iter_end_times.size(); ++i) {
    EXPECT_EQ(a.iter_end_times[i], b.iter_end_times[i]);
  }
  EXPECT_EQ(a.fault_stats.drops_injected, b.fault_stats.drops_injected);
  EXPECT_EQ(a.fault_stats.core_timeouts, b.fault_stats.core_timeouts);
  EXPECT_EQ(a.fault_stats.backend_retransmits, b.fault_stats.backend_retransmits);
}

TEST(ChaosZeroCostTest, EmptyPlanMatchesFaultFreeRunExactly) {
  JobConfig job = ChaosJobConfig(Setup::MxnetPsRdma(), 1);
  job.chaos.reset();
  const JobResult plain = RunTrainingJob(job);

  // Armed but never-firing fault fabric: empty plan, recovery timers enabled
  // with a timeout no healthy subtask reaches. Must be event-for-event equal.
  FaultPlanConfig empty;
  empty.retry_timeout = SimTime::Millis(250);
  job.chaos = empty;
  const JobResult armed = RunTrainingJob(job);

  EXPECT_EQ(plain.sim_events, armed.sim_events);
  EXPECT_EQ(plain.avg_iter_time, armed.avg_iter_time);
  ASSERT_EQ(plain.iter_end_times.size(), armed.iter_end_times.size());
  for (size_t i = 0; i < plain.iter_end_times.size(); ++i) {
    EXPECT_EQ(plain.iter_end_times[i], armed.iter_end_times[i]);
  }
  EXPECT_FALSE(armed.fault_stats.any_injected());
  EXPECT_EQ(armed.fault_stats.core_timeouts, 0u);
  EXPECT_GT(armed.fault_stats.messages_seen, 0u);  // the hooks did run
}

// ---- chaos on a dynamic-network fabric ----------------------------------
//
// The dynamic fabric (src/net/net_dynamics.h) adds volatile link schedules,
// cross traffic and AIMD rate control on top of the same links the fault
// fabric perturbs. Both derive every decision from (seed, site, time), so
// stacking them must not cost any determinism.

NetDynamicsConfig VolatileFabric(uint64_t seed) {
  NetDynamicsConfig dyn;
  dyn.seed = seed;
  dyn.volatility_amplitude = 0.5;
  dyn.cross_flows = 2;
  dyn.cross_load = 0.4;
  dyn.down_scale = 0.8;
  dyn.aimd.enable = true;
  return dyn;
}

// ---- --jobs 1 vs --jobs 4 chaos determinism -----------------------------
//
// With JobConfig::delayed_notify each worker's aggregation notification is a
// control message, so pulls are released later and recovery interleaves
// differently than with synchronous notifications. It must still be a pure
// function of the job: the result (every recovery counter and the timing
// trajectory), the metrics snapshot and the sampled time series are
// byte-identical whether the seed sweep runs with --jobs 1 or --jobs 4.

struct ChaosRun {
  JobResult result;
  std::string metrics_json;
  std::string series_csv;
};

// One delayed-notification chaos job per seed, optionally on the volatile
// fabric, on `jobs` sweep threads.
std::vector<ChaosRun> RunChaosSweep(int jobs, const std::vector<uint64_t>& seeds,
                                    bool volatile_fabric) {
  return ParallelFor(
      seeds.size(),
      [&](size_t i) {
        ChaosRun out;
        MetricsRegistry metrics;
        TimeSeriesRecorder recorder(&metrics, SimTime::Micros(200));
        JobConfig job = ChaosJobConfig(Setup::MxnetPsRdma(), seeds[i]);
        if (volatile_fabric) {
          job.dynamics = VolatileFabric(seeds[i]);
        }
        job.delayed_notify = true;
        job.metrics = &metrics;
        job.timeseries = &recorder;
        out.result = RunTrainingJob(job);
        std::ostringstream json;
        metrics.Snapshot().WriteJson(json);
        out.metrics_json = json.str();
        out.series_csv = recorder.ToCsv();
        return out;
      },
      jobs);
}

void ExpectSameRecovery(const JobResult& a, const JobResult& b) {
  EXPECT_EQ(std::memcmp(&a.samples_per_sec, &b.samples_per_sec, sizeof(double)), 0);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.subtasks_started, b.subtasks_started);
  EXPECT_EQ(a.subtasks_abandoned, b.subtasks_abandoned);
  EXPECT_EQ(a.avg_iter_time, b.avg_iter_time);
  EXPECT_EQ(a.iter_end_times, b.iter_end_times);
  const FaultStats& fa = a.fault_stats;
  const FaultStats& fb = b.fault_stats;
  EXPECT_EQ(fa.messages_seen, fb.messages_seen);
  EXPECT_EQ(fa.drops_injected, fb.drops_injected);
  EXPECT_EQ(fa.delays_injected, fb.delays_injected);
  EXPECT_EQ(fa.delay_injected_total, fb.delay_injected_total);
  EXPECT_EQ(fa.compute_slowdowns, fb.compute_slowdowns);
  EXPECT_EQ(fa.shard_slowdowns, fb.shard_slowdowns);
  EXPECT_EQ(fa.core_timeouts, fb.core_timeouts);
  EXPECT_EQ(fa.core_retries, fb.core_retries);
  EXPECT_EQ(fa.core_late_completions, fb.core_late_completions);
  EXPECT_EQ(fa.core_abandoned, fb.core_abandoned);
  EXPECT_EQ(fa.backend_retransmits, fb.backend_retransmits);
  EXPECT_EQ(fa.credit_restored, fb.credit_restored);
  EXPECT_EQ(a.rate_ctrl_decreases, b.rate_ctrl_decreases);
  EXPECT_EQ(a.rate_ctrl_increases, b.rate_ctrl_increases);
  EXPECT_EQ(a.link_repaces, b.link_repaces);
}

TEST(ChaosSweepJobsTest, RecoveryIsBitIdenticalAtJobs1And4) {
  const std::vector<uint64_t> seeds = {1, 2, 3, 4};
  const std::vector<ChaosRun> one = RunChaosSweep(1, seeds, /*volatile_fabric=*/false);
  const std::vector<ChaosRun> four = RunChaosSweep(4, seeds, /*volatile_fabric=*/false);
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed=" + std::to_string(seeds[i]));
    ExpectRecovered(one[i].result);
    ExpectSameRecovery(one[i].result, four[i].result);
  }
}

TEST(ChaosSweepJobsTest, TimeSeriesCsvIsByteIdenticalAtJobs1And4) {
  // The sampling tick chains interleave with retransmission recovery; the
  // exported series, including the per-window sketches that see the
  // recovery spikes, must still not depend on the sweep's --jobs value.
  const std::vector<uint64_t> seeds = {1, 3};
  const std::vector<ChaosRun> one = RunChaosSweep(1, seeds, /*volatile_fabric=*/false);
  const std::vector<ChaosRun> four = RunChaosSweep(4, seeds, /*volatile_fabric=*/false);
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed=" + std::to_string(seeds[i]));
    EXPECT_NE(one[i].series_csv.find(",w0,"), std::string::npos);
    EXPECT_EQ(one[i].series_csv, four[i].series_csv);
  }
}

TEST(ChaosSweepJobsTest, VolatileFabricRecoveryIsBitIdenticalAtJobs1And4) {
  const std::vector<uint64_t> seeds = {1, 2, 3, 4};
  const std::vector<ChaosRun> one = RunChaosSweep(1, seeds, /*volatile_fabric=*/true);
  const std::vector<ChaosRun> four = RunChaosSweep(4, seeds, /*volatile_fabric=*/true);
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed=" + std::to_string(seeds[i]));
    ExpectRecovered(one[i].result);
    // The dynamic fabric was actually live: the recorder sampled the
    // per-link effective-rate gauges it exports.
    EXPECT_NE(one[i].series_csv.find(".up.rate_bps,"), std::string::npos);
    ExpectSameRecovery(one[i].result, four[i].result);
    EXPECT_EQ(one[i].metrics_json, four[i].metrics_json);
    EXPECT_EQ(one[i].series_csv, four[i].series_csv);
  }
}

// ---- fault / rate-model composition ---------------------------------------
//
// A link-down fault is "rate 0 for the outage window". FaultPlan implements
// it as a delivery deferral (OutageDeferral) applied in Link::FinishSend,
// independent of the link's rate schedule, so outages compose with volatile
// schedules.

FaultPlanConfig LinkDownOnlyPlan(uint64_t seed) {
  FaultPlanConfig plan;
  plan.seed = seed;
  plan.horizon = SimTime::Millis(150);
  plan.link_down_episodes = 4;
  plan.link_down_len = SimTime::Millis(8);
  return plan;
}

TEST(FaultDynamicsComposeTest, LinkDownRecoversOnAVolatileFabric) {
  // Outage deferrals stack on top of volatile rate schedules: the run must
  // still recover every deferred delivery, and a replay must be
  // bit-identical — the composed plan is still a pure function of the seeds.
  JobConfig job = ChaosJobConfig(Setup::MxnetPsRdma(), 5);
  job.chaos = LinkDownOnlyPlan(5);
  job.dynamics = VolatileFabric(5);
  const JobResult a = RunTrainingJob(job);
  const JobResult b = RunTrainingJob(job);
  ExpectRecovered(a);
  EXPECT_GT(a.fault_stats.delays_injected, 0u);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.avg_iter_time, b.avg_iter_time);
  EXPECT_EQ(a.fault_stats.delay_injected_total, b.fault_stats.delay_injected_total);
  EXPECT_EQ(a.rate_ctrl_decreases, b.rate_ctrl_decreases);
  EXPECT_EQ(a.rate_ctrl_increases, b.rate_ctrl_increases);
  EXPECT_EQ(a.link_repaces, b.link_repaces);
}

}  // namespace
}  // namespace bsched
