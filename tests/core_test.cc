#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/comm/backend.h"
#include "src/common/trace.h"
#include "src/core/comm_task.h"
#include "src/core/scheduler_core.h"

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

}  // namespace
}  // namespace bsched
