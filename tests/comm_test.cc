#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "src/comm/allreduce_backend.h"
#include "src/comm/ps_backend.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

SubCommTask MakeSub(int worker, int layer, int partition, Bytes bytes, CommOpType type) {
  SubCommTask st;
  st.task = layer;
  st.worker = worker;
  st.layer = layer;
  st.tensor_id = layer;
  st.partition = partition;
  st.bytes = bytes;
  st.type = type;
  return st;
}

PsConfig IdealPs(int workers, int shards) {
  PsConfig cfg;
  cfg.num_workers = workers;
  cfg.num_shards = shards;
  cfg.link_rate = Bandwidth::Gbps(8);  // 1 GB/s
  cfg.transport = TransportModel::Ideal();
  cfg.update_bytes_per_sec = 1e15;  // negligible update cost
  cfg.update_fixed_overhead = SimTime();
  cfg.control_latency = SimTime();
  return cfg;
}

TEST(PsBackendTest, PushCompletesAtSenderFlush) {
  Simulator sim;
  PsBackend ps(&sim, IdealPs(1, 1));
  SimTime acked;
  ps.Start(MakeSub(0, 0, 0, MiB(1), CommOpType::kPush), [&] { acked = sim.Now(); });
  sim.Run();
  // Scheduler-visible completion is the sender-side flush: one uplink
  // occupancy (control latency is zero in this config).
  const double hop_sec = static_cast<double>(MiB(1)) / 1e9;
  EXPECT_NEAR(acked.ToSeconds(), hop_sec, 1e-9);
  // The data still traversed the shard ingress (store-and-forward).
  EXPECT_EQ(ps.shard_bytes_in(0), MiB(1));
}

TEST(PsBackendTest, PullWaitsForAllWorkers) {
  Simulator sim;
  PsBackend ps(&sim, IdealPs(2, 1));
  bool pulled = false;
  // Worker 0 pushes and immediately pulls; worker 1's push comes much later.
  ps.Start(MakeSub(0, 0, 0, MiB(1), CommOpType::kPush), [] {});
  ps.Start(MakeSub(0, 0, 0, MiB(1), CommOpType::kPull), [&] { pulled = true; });
  sim.Run(SimTime::Millis(100));
  EXPECT_FALSE(pulled);  // aggregation incomplete
  ps.Start(MakeSub(1, 0, 0, MiB(1), CommOpType::kPush), [] {});
  sim.Run();
  EXPECT_TRUE(pulled);
}

TEST(PsBackendTest, AsyncPullDoesNotWaitForOtherWorkers) {
  Simulator sim;
  PsConfig cfg = IdealPs(2, 1);
  cfg.synchronous = false;
  PsBackend ps(&sim, cfg);
  bool pulled = false;
  ps.Start(MakeSub(0, 0, 0, MiB(1), CommOpType::kPush), [] {});
  ps.Start(MakeSub(0, 0, 0, MiB(1), CommOpType::kPull), [&] { pulled = true; });
  sim.Run();
  EXPECT_TRUE(pulled);
}

TEST(PsBackendTest, PullAfterAggregationDeliversImmediately) {
  Simulator sim;
  PsBackend ps(&sim, IdealPs(1, 1));
  ps.Start(MakeSub(0, 0, 0, MiB(1), CommOpType::kPush), [] {});
  sim.Run();
  SimTime push_done = sim.Now();
  SimTime pull_done;
  ps.Start(MakeSub(0, 0, 0, MiB(1), CommOpType::kPull), [&] { pull_done = sim.Now(); });
  sim.Run();
  const double hop_sec = static_cast<double>(MiB(1)) / 1e9;
  EXPECT_NEAR((pull_done - push_done).ToSeconds(), 2 * hop_sec, 1e-9);
}

TEST(PsBackendTest, ShardAssignmentStripesPartitions) {
  Simulator sim;
  PsBackend ps(&sim, IdealPs(1, 4));
  // Partitions of layer 0 go to shards 0,1,2,3 -> ingress bytes balanced.
  for (int p = 0; p < 8; ++p) {
    ps.Start(MakeSub(0, 0, p, MiB(1), CommOpType::kPush), [] {});
  }
  sim.Run();
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(ps.shard_bytes_in(s), MiB(2)) << "shard " << s;
  }
}

TEST(PsBackendTest, UnpartitionedTensorsImbalanceShards) {
  Simulator sim;
  PsBackend ps(&sim, IdealPs(1, 4));
  // One giant tensor (layer 0) and three small ones: layer-round-robin puts
  // the giant tensor whole on shard 0.
  ps.Start(MakeSub(0, 0, 0, MiB(64), CommOpType::kPush), [] {});
  for (int layer = 1; layer < 4; ++layer) {
    ps.Start(MakeSub(0, layer, 0, MiB(1), CommOpType::kPush), [] {});
  }
  sim.Run();
  EXPECT_EQ(ps.shard_bytes_in(0), MiB(64));
  EXPECT_EQ(ps.shard_bytes_in(1), MiB(1));
  // Pull side imbalance metric: pull everything once.
  for (int layer = 0; layer < 4; ++layer) {
    ps.Start(MakeSub(0, layer, 0, layer == 0 ? MiB(64) : MiB(1), CommOpType::kPull), [] {});
  }
  sim.Run();
  EXPECT_GT(ps.ShardLoadImbalance(), 3.0);
}

TEST(PsBackendTest, DuplexPushPullOverlap) {
  // With aggregation already done for layer 0, a pull of layer 0 and a push
  // of layer 1 proceed concurrently on the duplex NIC.
  Simulator sim;
  PsBackend ps(&sim, IdealPs(1, 1));
  ps.Start(MakeSub(0, 0, 0, MiB(100), CommOpType::kPush), [] {});
  sim.Run();
  const SimTime t0 = sim.Now();
  SimTime pull_done;
  SimTime push_done;
  ps.Start(MakeSub(0, 0, 0, MiB(100), CommOpType::kPull), [&] { pull_done = sim.Now(); });
  ps.Start(MakeSub(0, 1, 0, MiB(100), CommOpType::kPush), [&] { push_done = sim.Now(); });
  sim.Run();
  const double hop = static_cast<double>(MiB(100)) / 1e9;
  EXPECT_NEAR((pull_done - t0).ToSeconds(), 2 * hop, 1e-6);  // egress + downlink
  EXPECT_NEAR((push_done - t0).ToSeconds(), hop, 1e-6);      // sender flush
}

TEST(PsBackendTest, ControlLatencyDelaysAck) {
  Simulator sim;
  PsConfig cfg = IdealPs(1, 1);
  cfg.control_latency = SimTime::Micros(10);
  PsBackend ps(&sim, cfg);
  SimTime acked;
  ps.Start(MakeSub(0, 0, 0, MiB(1), CommOpType::kPush), [&] { acked = sim.Now(); });
  sim.Run();
  const double hop_sec = static_cast<double>(MiB(1)) / 1e9;
  EXPECT_NEAR(acked.ToSeconds(), hop_sec + 10e-6, 1e-9);
}

TEST(PsBackendTest, AggregationListenerFires) {
  Simulator sim;
  PsBackend ps(&sim, IdealPs(2, 1));
  std::vector<std::tuple<int, int, int>> aggregated;
  ps.AddAggregationListener([&](int64_t tensor, int partition, int worker) {
    aggregated.emplace_back(static_cast<int>(tensor), partition, worker);
  });
  ps.Start(MakeSub(0, 3, 1, MiB(1), CommOpType::kPush), [] {});
  ps.Start(MakeSub(1, 3, 1, MiB(1), CommOpType::kPush), [] {});
  sim.Run();
  // One notification per worker, in worker order.
  ASSERT_EQ(aggregated.size(), 2u);
  EXPECT_EQ(aggregated[0], (std::tuple<int, int, int>{3, 1, 0}));
  EXPECT_EQ(aggregated[1], (std::tuple<int, int, int>{3, 1, 1}));
}

// ---- the backend's one slot table ----------------------------------------
//
// Every (tensor, partition) gets one slot at Start, shared by the pushes and
// pulls of all workers and by its shard.

SubCommTask WithTensor(SubCommTask st, int64_t tensor_id) {
  st.tensor_id = tensor_id;
  return st;
}

TEST(PsSlotTableTest, PullBeforeAnyPushWaitsForEveryWorkerThenDeliversPushSize) {
  Simulator sim;
  PsBackend ps(&sim, IdealPs(2, 1));
  bool pulled = false;
  // The pull asks for 4 KiB; it is sent the aggregated push's 1 MiB.
  ps.Start(MakeSub(0, 0, 0, KiB(4), CommOpType::kPull), [&] { pulled = true; });
  sim.Run();
  EXPECT_FALSE(pulled);
  EXPECT_NE(ps.DebugString().find("pending_pulls=1"), std::string::npos);
  ps.Start(MakeSub(0, 0, 0, MiB(1), CommOpType::kPush), [] {});
  sim.Run();
  EXPECT_FALSE(pulled);  // worker 1's copy is still missing
  ps.Start(MakeSub(1, 0, 0, MiB(1), CommOpType::kPush), [] {});
  sim.Run();
  EXPECT_TRUE(pulled);
  EXPECT_EQ(ps.worker_downlink(0).bytes_sent(), MiB(1));
  EXPECT_NE(ps.DebugString().find("pending_pulls=0"), std::string::npos);
}

TEST(PsSlotTableTest, CoScheduledTensorIdsGetDistinctSlots) {
  // Co-scheduled jobs offset their tensor ids by 1 << 20: tensors a and b
  // share layer, partition and (one shard) shard, but not their slot.
  constexpr int64_t kA = 7;
  constexpr int64_t kB = kA + (int64_t{1} << 20);
  Simulator sim;
  PsBackend ps(&sim, IdealPs(2, 1));
  std::vector<int64_t> aggregated;
  ps.AddAggregationListener([&](int64_t tensor, int, int) { aggregated.push_back(tensor); });
  bool pulled_b = false;
  ps.Start(WithTensor(MakeSub(0, 7, 0, KiB(4), CommOpType::kPull), kB), [&] { pulled_b = true; });
  for (int w = 0; w < 2; ++w) {
    ps.Start(WithTensor(MakeSub(w, 7, 0, MiB(1), CommOpType::kPush), kA), [] {});
  }
  sim.Run();
  // Aggregating a releases nothing parked on b.
  EXPECT_EQ(aggregated, (std::vector<int64_t>{kA, kA}));
  EXPECT_FALSE(pulled_b);
  EXPECT_NE(ps.DebugString().find("pending_pulls=1"), std::string::npos);
  bool pulled_a = false;
  ps.Start(WithTensor(MakeSub(1, 7, 0, MiB(1), CommOpType::kPull), kA), [&] { pulled_a = true; });
  sim.Run();
  EXPECT_TRUE(pulled_a);
  EXPECT_FALSE(pulled_b);
  for (int w = 0; w < 2; ++w) {
    ps.Start(WithTensor(MakeSub(w, 7, 0, KiB(256), CommOpType::kPush), kB), [] {});
  }
  sim.Run();
  EXPECT_TRUE(pulled_b);
  EXPECT_EQ(aggregated, (std::vector<int64_t>{kA, kA, kB, kB}));
  EXPECT_EQ(ps.worker_downlink(0).bytes_sent(), KiB(256));  // b's pushes
  EXPECT_EQ(ps.worker_downlink(1).bytes_sent(), MiB(1));    // a's pushes
}

TEST(PsSlotTableTest, AckingOneSlotLeavesAnotherSlotsTimerArmed) {
  // Every message sent in [0, 1 ms) is lost: tensor 1's data leg leaves at 0
  // and is lost, tensor 0's leaves at 2 ms and is acked. Tensor 1's ack timer
  // (5 ms after its flush) must survive that ack and retransmit.
  Simulator sim;
  FaultPlanConfig plan;
  plan.seed = 5;
  plan.horizon = SimTime::Millis(1);
  plan.site_prob = 1.0;
  plan.drop_episodes = 1;
  plan.drop_prob = 1.0;
  plan.drop_len = SimTime::Millis(1);
  plan.retry_timeout = SimTime::Millis(5);
  FaultInjector faults(plan, &sim);
  PsConfig cfg = IdealPs(1, 1);
  cfg.faults = &faults;
  PsBackend ps(&sim, cfg);
  int aggregations = 0;
  ps.AddAggregationListener([&](int64_t, int, int) { ++aggregations; });
  ps.Start(MakeSub(0, 1, 0, KiB(64), CommOpType::kPush), [] {});
  sim.Schedule(SimTime::Millis(2),
               [&] { ps.Start(MakeSub(0, 0, 0, KiB(64), CommOpType::kPush), [] {}); });
  sim.Run(SimTime::Millis(3));
  EXPECT_EQ(aggregations, 1);  // tensor 0 only
  EXPECT_NE(ps.DebugString().find("unacked_pushes=1"), std::string::npos) << ps.DebugString();
  EXPECT_EQ(ps.push_retransmits(), 0u);
  sim.Run();
  EXPECT_EQ(ps.push_retransmits(), 1u);
  EXPECT_EQ(aggregations, 2);
  EXPECT_NE(ps.DebugString().find("unacked_pushes=0"), std::string::npos) << ps.DebugString();
}

AllReduceConfig IdealRing(int workers) {
  AllReduceConfig cfg;
  cfg.num_workers = workers;
  cfg.link_rate = Bandwidth::Gbps(8);  // 1 GB/s
  cfg.transport = TransportModel::Ideal();
  cfg.launch_overhead = SimTime();
  cfg.step_latency = SimTime();
  return cfg;
}

// A hop stores the size and tensor id in 32 bits and the worker and shard in
// 16: a value that does not fit aborts instead of wrapping.
TEST(PsBackendDeathTest, RejectsValuesWiderThanAHopField) {
  EXPECT_DEATH(
      {
        Simulator sim;
        PsBackend ps(&sim, IdealPs(1, 1));
        ps.Start(MakeSub(0, 0, 0, Bytes{1} << 32, CommOpType::kPush), [] {});
      },
      "at most 4 GiB");
  EXPECT_DEATH(
      {
        Simulator sim;
        PsBackend ps(&sim, IdealPs(1, 1));
        SubCommTask pull = MakeSub(0, 0, 0, KiB(4), CommOpType::kPull);
        pull.tensor_id = int64_t{1} << 32;
        ps.Start(pull, [] {});
      },
      "tensor id is 32 bits");
  EXPECT_DEATH(
      {
        Simulator sim;
        PsBackend ps(&sim, IdealPs(1, (1 << 16) + 1));
      },
      "num_shards <= UINT16_MAX");
}

TEST(AllReduceBackendTest, RingTimeFormula) {
  Simulator sim;
  AllReduceBackend ar(&sim, IdealRing(4));
  // 2(W-1)/W * S / B = 2*3/4 * 64MiB / 1GB/s
  const double expected = 2.0 * 3 / 4 * static_cast<double>(MiB(64)) / 1e9;
  EXPECT_NEAR(ar.RingTime(MiB(64)).ToSeconds(), expected, 1e-9);
}

TEST(AllReduceBackendTest, SingleWorkerIsFree) {
  Simulator sim;
  AllReduceBackend ar(&sim, IdealRing(1));
  EXPECT_EQ(ar.RingTime(MiB(64)).nanos(), 0);
}

TEST(AllReduceBackendTest, StepLatencyScalesWithWorkers) {
  AllReduceConfig cfg = IdealRing(16);
  cfg.step_latency = SimTime::Micros(10);
  Simulator sim;
  AllReduceBackend ar(&sim, cfg);
  // 2*(16-1) steps x 10us of latency on top of the bandwidth term.
  const double bw_term = 2.0 * 15 / 16 * static_cast<double>(MiB(16)) / 1e9;
  EXPECT_NEAR(ar.RingTime(MiB(16)).ToSeconds(), bw_term + 30 * 10e-6, 1e-9);
}

TEST(AllReduceBackendTest, OpsSerializeOnRing) {
  Simulator sim;
  AllReduceBackend ar(&sim, IdealRing(2));
  std::vector<int64_t> done;
  for (int i = 0; i < 3; ++i) {
    ar.Start(MakeSub(0, i, 0, MiB(1), CommOpType::kAllReduce),
             [&] { done.push_back(sim.Now().nanos()); });
  }
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  const int64_t op_ns = ar.RingTime(MiB(1)).nanos();
  EXPECT_EQ(done[0], op_ns);
  EXPECT_EQ(done[1], 2 * op_ns);
  EXPECT_EQ(done[2], 3 * op_ns);
  EXPECT_EQ(ar.ops_completed(), 3u);
}

TEST(AllReduceBackendTest, LaunchOverheadPipelinesAcrossOps) {
  AllReduceConfig cfg = IdealRing(2);
  cfg.launch_overhead = SimTime::Micros(100);
  Simulator sim;
  AllReduceBackend ar(&sim, cfg);
  SimTime last;
  // Two ops admitted back-to-back: the second op's launch overlaps the first
  // op's ring occupancy, so the total is launch + 2 * ring (not 2 * both).
  ar.Start(MakeSub(0, 0, 0, MiB(10), CommOpType::kAllReduce), [] {});
  ar.Start(MakeSub(0, 1, 0, MiB(10), CommOpType::kAllReduce), [&] { last = sim.Now(); });
  sim.Run();
  const double ring = ar.RingTime(MiB(10)).ToSeconds();
  EXPECT_NEAR(last.ToSeconds(), 100e-6 + 2 * ring, 1e-9);
}

TEST(AllReduceBackendTest, StopAndWaitPaysLaunchPerOp) {
  AllReduceConfig cfg = IdealRing(2);
  cfg.launch_overhead = SimTime::Micros(100);
  Simulator sim;
  AllReduceBackend ar(&sim, cfg);
  SimTime last;
  // Second op admitted only after the first completes (stop-and-wait):
  // its launch overhead cannot be hidden.
  ar.Start(MakeSub(0, 0, 0, MiB(10), CommOpType::kAllReduce), [&] {
    ar.Start(MakeSub(0, 1, 0, MiB(10), CommOpType::kAllReduce), [&] { last = sim.Now(); });
  });
  sim.Run();
  const double ring = ar.RingTime(MiB(10)).ToSeconds();
  EXPECT_NEAR(last.ToSeconds(), 2 * 100e-6 + 2 * ring, 1e-9);
}

TEST(AllReduceBackendTest, NcclPresetsDependOnTransport) {
  AllReduceConfig rdma = AllReduceConfig::Nccl(8, Bandwidth::Gbps(100), TransportModel::Rdma());
  AllReduceConfig tcp = AllReduceConfig::Nccl(8, Bandwidth::Gbps(100), TransportModel::Tcp());
  EXPECT_LT(rdma.launch_overhead, tcp.launch_overhead);
  EXPECT_LT(rdma.step_latency, tcp.step_latency);
}

}  // namespace
}  // namespace bsched
