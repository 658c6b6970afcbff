#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/comm/backend.h"
#include "src/comm/ps_backend.h"
#include "src/common/trace.h"
#include "src/core/comm_task.h"
#include "src/core/scheduler_core.h"
#include "src/fault/fault_injector.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

// Backend that records admissions and lets the test complete them manually,
// emulating the underlying FIFO stack.
class MockBackend : public CommBackend {
 public:
  void Start(const SubCommTask& subtask, std::function<void()> on_finish) override {
    started.push_back(subtask);
    pending.push_back(std::move(on_finish));
  }

  // Completes the oldest in-flight subtask (FIFO, like a network queue).
  void FinishOldest() {
    ASSERT_FALSE(pending.empty());
    auto cb = std::move(pending.front());
    pending.pop_front();
    cb();
  }

  void FinishAll() {
    while (!pending.empty()) {
      FinishOldest();
    }
  }

  std::vector<SubCommTask> started;
  std::deque<std::function<void()>> pending;
};

CommTaskDesc MakeDesc(int layer, Bytes bytes, CommOpType type = CommOpType::kPush) {
  CommTaskDesc desc;
  desc.layer = layer;
  desc.tensor_bytes = bytes;
  desc.type = type;
  desc.name = "t" + std::to_string(layer);
  return desc;
}

TEST(SchedulerConfigTest, Presets) {
  SchedulerConfig vanilla = SchedulerConfig::Vanilla();
  EXPECT_EQ(vanilla.policy, SchedulerConfig::Policy::kFifo);
  EXPECT_EQ(vanilla.partition_bytes, SchedulerConfig::kNoPartition);
  EXPECT_EQ(vanilla.credit_bytes, SchedulerConfig::kUnlimited);

  SchedulerConfig p3 = SchedulerConfig::P3();
  EXPECT_EQ(p3.policy, SchedulerConfig::Policy::kPriority);
  EXPECT_EQ(p3.partition_bytes, KiB(160));
  EXPECT_EQ(p3.credit_bytes, KiB(160));

  SchedulerConfig bs = SchedulerConfig::ByteScheduler(MiB(4), MiB(16));
  EXPECT_EQ(bs.partition_bytes, MiB(4));
  EXPECT_EQ(bs.credit_bytes, MiB(16));
}

TEST(CommOpTypeTest, ToString) {
  EXPECT_STREQ(ToString(CommOpType::kPush), "push");
  EXPECT_STREQ(ToString(CommOpType::kPull), "pull");
  EXPECT_STREQ(ToString(CommOpType::kAllReduce), "allreduce");
}

TEST(SchedulerCoreTest, PartitionCount) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend);
  CommTaskId exact = core.Enqueue(MakeDesc(0, MiB(4)));
  EXPECT_EQ(core.NumPartitions(exact), 4);
  CommTaskId remainder = core.Enqueue(MakeDesc(1, MiB(4) + 1));
  EXPECT_EQ(core.NumPartitions(remainder), 5);
  CommTaskId small = core.Enqueue(MakeDesc(2, KiB(100)));
  EXPECT_EQ(core.NumPartitions(small), 1);
}

TEST(SchedulerCoreTest, NoPartitioningKeepsTensorWhole) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::Vanilla(), &backend);
  CommTaskId id = core.Enqueue(MakeDesc(0, MiB(64)));
  EXPECT_EQ(core.NumPartitions(id), 1);
}

TEST(SchedulerCoreTest, NothingStartsBeforeNotifyReady) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(64)), &backend);
  core.Enqueue(MakeDesc(0, MiB(2)));
  EXPECT_TRUE(backend.started.empty());
}

TEST(SchedulerCoreTest, NotifyReadyStartsAllPartitions) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend);
  CommTaskId id = core.Enqueue(MakeDesc(0, MiB(3)));
  core.NotifyReady(id);
  ASSERT_EQ(backend.started.size(), 3u);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(backend.started[p].partition, p);
    EXPECT_EQ(backend.started[p].bytes, MiB(1));
  }
}

TEST(SchedulerCoreTest, PriorityOrdersByLayer) {
  MockBackend backend;
  // Credit of one partition: admissions are strictly one at a time, so the
  // admission order exposes the queue order.
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(1)), &backend);
  CommTaskId late = core.Enqueue(MakeDesc(5, MiB(1)));
  CommTaskId early = core.Enqueue(MakeDesc(1, MiB(1)));
  CommTaskId mid = core.Enqueue(MakeDesc(3, MiB(1)));
  core.NotifyReady(late);
  core.NotifyReady(early);
  core.NotifyReady(mid);
  // Layer 5 was ready first and admitted immediately (the queue was empty).
  ASSERT_EQ(backend.started.size(), 1u);
  EXPECT_EQ(backend.started[0].layer, 5);
  // As credits return, priority picks layer 1 then 3.
  backend.FinishOldest();
  ASSERT_EQ(backend.started.size(), 2u);
  EXPECT_EQ(backend.started[1].layer, 1);
  backend.FinishOldest();
  ASSERT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(backend.started[2].layer, 3);
}

TEST(SchedulerCoreTest, FifoPolicyIgnoresLayer) {
  MockBackend backend;
  SchedulerConfig cfg = SchedulerConfig::Vanilla();
  cfg.credit_bytes = MiB(1);  // serialize admissions to observe order
  SchedulerCore core(cfg, &backend);
  std::vector<CommTaskId> ids;
  for (int layer : {7, 2, 9, 0}) {
    ids.push_back(core.Enqueue(MakeDesc(layer, MiB(1))));
  }
  for (CommTaskId id : ids) {
    core.NotifyReady(id);
  }
  backend.FinishAll();
  ASSERT_EQ(backend.started.size(), 4u);
  EXPECT_EQ(backend.started[0].layer, 7);
  EXPECT_EQ(backend.started[1].layer, 2);
  EXPECT_EQ(backend.started[2].layer, 9);
  EXPECT_EQ(backend.started[3].layer, 0);
}

TEST(SchedulerCoreTest, PullBeatsPushAtSameLayer) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(1)), &backend);
  CommTaskId blocker = core.Enqueue(MakeDesc(9, MiB(1)));
  core.NotifyReady(blocker);  // occupies the credit
  CommTaskId push = core.Enqueue(MakeDesc(2, MiB(1), CommOpType::kPush));
  CommTaskId pull = core.Enqueue(MakeDesc(2, MiB(1), CommOpType::kPull));
  core.NotifyReady(push);
  core.NotifyReady(pull);
  backend.FinishAll();
  ASSERT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(backend.started[1].type, CommOpType::kPull);
  EXPECT_EQ(backend.started[2].type, CommOpType::kPush);
}

TEST(SchedulerCoreTest, CreditLimitsInFlightBytes) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(3)), &backend);
  CommTaskId id = core.Enqueue(MakeDesc(0, MiB(10)));
  core.NotifyReady(id);
  // Only 3 MiB of credit: exactly 3 partitions admitted.
  EXPECT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(core.credit(), 0);
  backend.FinishOldest();
  EXPECT_EQ(backend.started.size(), 4u);
}

TEST(SchedulerCoreTest, CreditReturnsOnFinish) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(2)), &backend);
  CommTaskId id = core.Enqueue(MakeDesc(0, MiB(2)));
  core.NotifyReady(id);
  EXPECT_EQ(core.credit(), 0);
  backend.FinishAll();
  EXPECT_EQ(core.credit(), MiB(2));
}

TEST(SchedulerCoreTest, OversizedSubtaskAdmittedOnlyAtFullCredit) {
  MockBackend backend;
  // Partitioning disabled but priority on: a 4 MiB tensor with 1 MiB credit.
  SchedulerConfig cfg = SchedulerConfig::ByteScheduler(SchedulerConfig::kNoPartition, MiB(1));
  SchedulerCore core(cfg, &backend);
  CommTaskId big = core.Enqueue(MakeDesc(0, MiB(4)));
  core.NotifyReady(big);
  // Admitted despite exceeding the pool (pool was full), charging the pool.
  ASSERT_EQ(backend.started.size(), 1u);
  EXPECT_EQ(core.credit(), 0);
  CommTaskId next = core.Enqueue(MakeDesc(1, KiB(1)));
  core.NotifyReady(next);
  EXPECT_EQ(backend.started.size(), 1u);  // blocked: no credit
  backend.FinishOldest();
  EXPECT_EQ(core.credit(), MiB(1) - KiB(1));
  EXPECT_EQ(backend.started.size(), 2u);
}

TEST(SchedulerCoreTest, HeadOfLineBlocking) {
  MockBackend backend;
  // Algorithm 1 waits for the head subtask's credit; it does not bypass it
  // with a smaller lower-priority subtask.
  SchedulerConfig cfg = SchedulerConfig::ByteScheduler(SchedulerConfig::kNoPartition, MiB(2));
  SchedulerCore core(cfg, &backend);
  CommTaskId hog = core.Enqueue(MakeDesc(5, MiB(1)));
  core.NotifyReady(hog);  // in flight, credit = 1 MiB left
  CommTaskId head = core.Enqueue(MakeDesc(0, MiB(2)));   // needs 2 MiB
  CommTaskId small = core.Enqueue(MakeDesc(1, KiB(1)));  // would fit
  core.NotifyReady(head);
  core.NotifyReady(small);
  EXPECT_EQ(backend.started.size(), 1u);  // both wait behind the head
  backend.FinishOldest();  // hog returns 1 MiB -> pool full -> head admitted
  ASSERT_EQ(backend.started.size(), 2u);
  EXPECT_EQ(backend.started[1].layer, 0);
  backend.FinishOldest();  // head returns its credit -> small admitted
  ASSERT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(backend.started[2].layer, 1);
}

TEST(SchedulerCoreTest, OnFinishFiresWhenAllPartitionsDone) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend);
  int finished = 0;
  CommTaskDesc desc = MakeDesc(0, MiB(3));
  desc.on_finish = [&] { ++finished; };
  CommTaskId id = core.Enqueue(std::move(desc));
  core.NotifyReady(id);
  backend.FinishOldest();
  backend.FinishOldest();
  EXPECT_EQ(finished, 0);
  backend.FinishOldest();
  EXPECT_EQ(finished, 1);
  EXPECT_EQ(core.tasks_finished(), 1u);
}

TEST(SchedulerCoreTest, PartitionFinishCallbackChainsReadiness) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend);
  // PS plugin pattern: pull partitions become ready as push partitions ack.
  CommTaskDesc pull_desc = MakeDesc(0, MiB(2), CommOpType::kPull);
  CommTaskId pull = core.Enqueue(std::move(pull_desc));

  CommTaskDesc push_desc = MakeDesc(0, MiB(2), CommOpType::kPush);
  push_desc.on_partition_finish = [&core, pull](int p) { core.NotifyReadyPartition(pull, p); };
  CommTaskId push = core.Enqueue(std::move(push_desc));

  core.NotifyReady(push);
  ASSERT_EQ(backend.started.size(), 2u);
  backend.FinishOldest();  // push partition 0 acked
  ASSERT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(backend.started[2].type, CommOpType::kPull);
  EXPECT_EQ(backend.started[2].partition, 0);
  backend.FinishOldest();  // push partition 1
  ASSERT_EQ(backend.started.size(), 4u);
  EXPECT_EQ(backend.started[3].partition, 1);
}

TEST(SchedulerCoreTest, DoubleNotifyReadyIsIdempotent) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend);
  CommTaskId id = core.Enqueue(MakeDesc(0, MiB(2)));
  core.NotifyReady(id);
  core.NotifyReady(id);
  core.NotifyReadyPartition(id, 0);
  EXPECT_EQ(backend.started.size(), 2u);
}

TEST(SchedulerCoreTest, WorkerIdPropagates) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend, /*worker_id=*/3);
  CommTaskDesc desc = MakeDesc(0, MiB(1));
  desc.worker = 3;
  CommTaskId id = core.Enqueue(std::move(desc));
  core.NotifyReady(id);
  ASSERT_EQ(backend.started.size(), 1u);
  EXPECT_EQ(backend.started[0].worker, 3);
}

// A traced Core keeps the partition-flow ledger. A push opens an arc, its
// pull continues it and the finished pull closes it; a pull with no open arc
// and the next iteration's push each open a fresh one. Ids come from the
// recorder's counter.
TEST(SchedulerCoreTest, TracedCoreKeepsPartitionFlowArcs) {
  Simulator sim;
  TraceRecorder trace;
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend, 0, &sim, nullptr, &trace);
  // Admits one single-partition op on tensor 7 and returns its arc.
  auto admit = [&](CommOpType type) {
    CommTaskDesc desc = MakeDesc(7, KiB(64), type);
    desc.tensor_id = 7;
    core.NotifyReady(core.Enqueue(std::move(desc)));
    return backend.started.back().flow;
  };
  const uint64_t push = admit(CommOpType::kPush);
  EXPECT_EQ(push, 1u);
  backend.FinishOldest();  // a finished push leaves its arc open
  EXPECT_EQ(admit(CommOpType::kPull), push);
  backend.FinishOldest();  // the finished pull closes it
  const uint64_t lone_pull = admit(CommOpType::kPull);
  EXPECT_EQ(lone_pull, 2u);
  backend.FinishOldest();
  const uint64_t next_push = admit(CommOpType::kPush);
  EXPECT_EQ(next_push, 3u);

  std::ostringstream os;
  trace.WriteChromeTrace(os);
  const std::string json = os.str();
  const auto has_point = [&json](const char* ph, uint64_t id) {
    return json.find(std::string(R"({"ph":")") + ph + R"(","cat":"flow","id":)" +
                     std::to_string(id) + ",") != std::string::npos;
  };
  EXPECT_TRUE(has_point("s", push));
  EXPECT_TRUE(has_point("t", push));
  EXPECT_TRUE(has_point("f", push));
  EXPECT_TRUE(has_point("s", lone_pull));
  EXPECT_TRUE(has_point("f", lone_pull));
  EXPECT_TRUE(has_point("s", next_push));
  EXPECT_FALSE(has_point("f", next_push));
  EXPECT_EQ(trace.num_flow_events(), 6u);
}

TEST(SchedulerCoreTest, StressManyTasksConserveCredit) {
  MockBackend backend;
  const Bytes credit = MiB(7);
  SchedulerCore core(SchedulerConfig::ByteScheduler(KiB(256), credit), &backend);
  std::vector<CommTaskId> ids;
  for (int layer = 0; layer < 40; ++layer) {
    ids.push_back(core.Enqueue(MakeDesc(layer, KiB(700) + layer * 13)));
  }
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    core.NotifyReady(*it);
  }
  // Drain everything, finishing in admission order.
  while (!backend.pending.empty()) {
    backend.FinishOldest();
  }
  EXPECT_EQ(core.credit(), credit);
  EXPECT_EQ(core.tasks_finished(), 40u);
  EXPECT_EQ(core.queue_length(), 0u);
}

// Property: under priority policy, whenever credit frees up, the admitted
// subtask has the minimal (layer, type) key among queued-ready subtasks.
TEST(SchedulerCoreTest, PropertyAdmissionIsPriorityOrderedUnderSerialCredit) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(KiB(512), KiB(512)), &backend);
  // Make tasks ready in descending priority so the queue always holds all
  // remaining work, then check admissions are ascending by layer.
  std::vector<CommTaskId> ids;
  for (int layer = 19; layer >= 0; --layer) {
    CommTaskId id = core.Enqueue(MakeDesc(layer, KiB(512)));
    core.NotifyReady(id);
    ids.push_back(id);
  }
  // First admission was layer 19 (queue empty at the time). Finish it, then
  // the rest must come out 0,1,2,...
  backend.FinishOldest();
  while (!backend.pending.empty()) {
    backend.FinishOldest();
  }
  ASSERT_EQ(backend.started.size(), 20u);
  for (int i = 1; i < 20; ++i) {
    EXPECT_EQ(backend.started[i].layer, i - 1) << "admission " << i;
  }
}

// ---- Flights ----------------------------------------------------------------

// A backend that completes each partition inside Start (as perfbench's
// InstantBackend does) or parks the completion for the test loop.
class SyncOrDeferredBackend : public MockBackend {
 public:
  explicit SyncOrDeferredBackend(bool synchronous) : synchronous_(synchronous) {}

  void Start(const SubCommTask& subtask, std::function<void()> on_finish) override {
    MockBackend::Start(subtask, std::move(on_finish));
    if (synchronous_) {
      auto cb = std::move(pending.back());
      pending.pop_back();
      cb();
    }
  }

 private:
  bool synchronous_;
};

// What the differential test compares: every admission (task, partition) in
// order; every completion in order, with the credit and admitted count right
// after its credit came back (so each partition's charge shows); and the
// credit, admitted count and queue length after each step of the test loop.
struct AdmissionRun {
  std::vector<std::tuple<CommTaskId, int>> admitted;
  std::vector<std::tuple<CommTaskId, int, Bytes, uint64_t>> finished;
  std::vector<std::tuple<Bytes, uint64_t, size_t>> steps;
};

// One randomized task mix on one Core. Tasks are push/pull pairs (PS) or
// all-reduce ops. A push partition finishing readies its pull partition,
// and a finished task readies the next waiting one, so completions re-enter
// the Core with more urgent work. With `recovery`, the Core gets a
// FaultInjector whose plan injects nothing and whose timers never fire (the
// loop never runs the simulator): each admitted partition then keeps its
// record until it finishes, where without one the record is released at
// admission and the finishing partition's charge is recomputed.
AdmissionRun RunMix(uint64_t seed, bool synchronous, bool recovery) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](uint64_t n) { return static_cast<int>(rng() % n); };
  const bool ps = pick(2) == 0;
  const Bytes partition = KiB(1) * (1 + pick(8));
  const Bytes credits[] = {partition, partition * (2 + pick(6)), partition / 2 + 1,
                           SchedulerConfig::kUnlimited};
  SchedulerConfig config = SchedulerConfig::ByteScheduler(partition, credits[pick(4)]);
  if (pick(3) == 0) {
    config.policy = SchedulerConfig::Policy::kFifo;
  }
  SyncOrDeferredBackend backend(synchronous);
  Simulator sim;
  FaultInjector faults(FaultPlanConfig{}, &sim);
  SchedulerCore core(config, &backend, 0, recovery ? &sim : nullptr,
                     recovery ? &faults : nullptr);
  AdmissionRun run;
  std::vector<CommTaskId> waiting;  // readied in order, by the loop or a finish
  size_t next_ready = 0;
  const auto ready_next = [&] {
    if (next_ready < waiting.size()) {
      core.NotifyReady(waiting[next_ready++]);
    }
  };
  // Task ids are issued in Enqueue order from 0.
  CommTaskId next_id = 0;
  const auto enqueue = [&](CommTaskDesc desc) {
    const CommTaskId id = next_id++;
    auto chained = std::move(desc.on_partition_finish);
    desc.on_partition_finish = [&run, &core, id, chained](int p) {
      run.finished.emplace_back(id, p, core.credit(), core.subtasks_started());
      if (chained) {
        chained(p);
      }
    };
    desc.on_finish = ready_next;
    EXPECT_EQ(core.Enqueue(std::move(desc)), id);
    return id;
  };
  const int num_tasks = 4 + pick(12);
  for (int t = 0; t < num_tasks; ++t) {
    const Bytes bytes = 1 + static_cast<Bytes>(rng() % static_cast<uint64_t>(9 * partition));
    const int layer = pick(6);
    if (!ps) {
      waiting.push_back(enqueue(MakeDesc(layer, bytes, CommOpType::kAllReduce)));
      continue;
    }
    const CommTaskId pull = enqueue(MakeDesc(layer, bytes, CommOpType::kPull));
    CommTaskDesc push = MakeDesc(layer, bytes, CommOpType::kPush);
    push.on_partition_finish = [&core, pull](int p) { core.NotifyReadyPartition(pull, p); };
    waiting.push_back(enqueue(std::move(push)));
  }
  while (next_ready < waiting.size() || !backend.pending.empty()) {
    if (next_ready < waiting.size() && (backend.pending.empty() || pick(3) == 0)) {
      ready_next();
    } else {
      const auto it = backend.pending.begin() + pick(backend.pending.size());
      auto cb = std::move(*it);
      backend.pending.erase(it);
      cb();
    }
    run.steps.emplace_back(core.credit(), core.subtasks_started(), core.queue_length());
  }
  for (const SubCommTask& st : backend.started) {
    run.admitted.emplace_back(st.task, st.partition);
  }
  EXPECT_EQ(core.credit(), config.credit_bytes);
  EXPECT_EQ(core.tasks_finished(), static_cast<uint64_t>(next_id));
  EXPECT_EQ(core.subtasks_started(), backend.started.size());
  EXPECT_EQ(core.retries(), 0u);
  return run;
}

TEST(SchedulerCoreFlightTest, RecordFreeFlightsAdmitAsRecordHeldFlights) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    for (const bool synchronous : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (synchronous ? " sync" : " deferred"));
      const AdmissionRun held = RunMix(seed, synchronous, /*recovery=*/true);
      const AdmissionRun freed = RunMix(seed, synchronous, /*recovery=*/false);
      EXPECT_EQ(freed.admitted, held.admitted);
      EXPECT_EQ(freed.finished, held.finished);
      EXPECT_EQ(freed.steps, held.steps);
    }
  }
}

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
};

// One randomized synchronous-PS iteration: every worker's Core pushes each
// layer's gradient when its backward step readies it and pulls each
// partition once it is pushed, under random credit, partition size, policy,
// worker and shard counts. `merged` lets the Cores hand their flights to
// the PS directly, so a task's consecutive push partitions share one uplink
// entry; otherwise each partition is its own.
PsMixRun RunPsMix(uint64_t seed, bool merged) {
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
  PsConfig ps_config;
  ps_config.num_workers = workers;
  ps_config.num_shards = 1 + pick(3);
  ps_config.link_rate = Bandwidth::Gbps(1 + pick(25));
  ps_config.control_latency = SimTime::Micros(pick(20));
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
        config, merged ? static_cast<CommBackend*>(&ps) : &start_only, w, &sim));
    SchedulerCore& core = *cores.back();
    for (int l = layers - 1; l >= 0; --l) {
      CommTaskDesc pull_desc = MakeDesc(l, sizes[l], CommOpType::kPull);
      pull_desc.worker = w;
      pull_desc.on_partition_finish = [&run, &sim, w, l](int p) {
        run.pulled.emplace_back(w, l, p, sim.Now().nanos());
      };
      const CommTaskId pull = core.Enqueue(std::move(pull_desc));
      CommTaskDesc push_desc = MakeDesc(l, sizes[l], CommOpType::kPush);
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
    run.subtasks_started += core->subtasks_started();
  }
  run.link_entries = ps.peak_link_entries();
  return run;
}

TEST(SchedulerCoreFlightTest, PsUplinkRunsMatchOneEntryPerPartition) {
  uint64_t merged_entries = 0;
  uint64_t separate_entries = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PsMixRun separate = RunPsMix(seed, /*merged=*/false);
    const PsMixRun merged = RunPsMix(seed, /*merged=*/true);
    EXPECT_EQ(merged.pulled, separate.pulled);
    EXPECT_EQ(merged.events, separate.events);
    EXPECT_EQ(merged.subtasks_started, separate.subtasks_started);
    EXPECT_LE(merged.link_entries, separate.link_entries);
    merged_entries += merged.link_entries;
    separate_entries += separate.link_entries;
  }
  // Credit above one partition queues runs of a task's partitions.
  EXPECT_LT(merged_entries, separate_entries);
}

}  // namespace
}  // namespace bsched
