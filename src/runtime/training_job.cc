#include "src/runtime/training_job.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/allreduce_backend.h"
#include "src/comm/ps_backend.h"
#include "src/common/check.h"
#include "src/core/scheduler_core.h"
#include "src/engine/dag_engine.h"
#include "src/engine/imperative_engine.h"
#include "src/engine/proxy.h"
#include "src/obs/timeseries.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

SchedulerConfig SchedulerConfigFor(const JobConfig& config) {
  if (config.sched_override.has_value()) {
    return *config.sched_override;
  }
  switch (config.mode) {
    case SchedMode::kVanilla:
      return SchedulerConfig::Vanilla();
    case SchedMode::kByteScheduler:
      return SchedulerConfig::ByteScheduler(config.partition_bytes, config.credit_bytes);
    case SchedMode::kP3: {
      SchedulerConfig cfg = SchedulerConfig::P3();
      // P3 runs one stop-and-wait stream per parameter server, so its
      // effective in-flight window scales with the shard count.
      cfg.credit_bytes = cfg.partition_bytes * config.num_machines;
      return cfg;
    }
  }
  return SchedulerConfig::Vanilla();
}

// The substrate the jobs of one run share: the simulator, the fault
// injector and the communication backend (PS shards or the all-reduce ring),
// built from one job's config, which also supplies the trace and metrics
// sinks the backend writes. A job run alone gets its own Fabric;
// co-scheduled jobs (§7) share one.
struct Fabric {
  explicit Fabric(const JobConfig& config) {
    if (config.chaos.has_value()) {
      faults = std::make_unique<FaultInjector>(*config.chaos, &sim, config.trace);
    }
    const bool dynamic = config.dynamics.has_value() && config.dynamics->enabled();
    if (config.setup.arch == ArchType::kPs) {
      PsConfig ps_config;
      ps_config.num_workers = config.num_machines;
      ps_config.num_shards = config.num_machines;
      ps_config.link_rate = config.bandwidth;
      ps_config.transport = config.setup.transport;
      ps_config.synchronous = !config.ps_async;
      ps_config.faults = faults.get();
      ps_config.trace = config.trace;
      ps_config.metrics = config.metrics;
      ps_config.delayed_notify = config.delayed_notify;
      if (dynamic) {
        ps_config.dynamics = &*config.dynamics;
      }
      ps = std::make_unique<PsBackend>(&sim, ps_config);
      backend = ps.get();
    } else {
      BSCHED_CHECK(!dynamic && "the dynamic-network fabric is wired for the PS architecture");
      AllReduceConfig ar_config = AllReduceConfig::Nccl(config.total_gpus(), config.bandwidth,
                                                        config.setup.transport);
      if (config.mode == SchedMode::kVanilla) {
        // Vanilla Horovod negotiates each tensor across workers in periodic
        // cycles (default cycle_time ~5 ms); ByteScheduler's master-ordered
        // Core removes that per-tensor negotiation (§5).
        ar_config.nego_cycle = SimTime::Millis(5);
      }
      ar_config.faults = faults.get();
      ar_config.trace = config.trace;
      ar_config.metrics = config.metrics;
      ar = std::make_unique<AllReduceBackend>(&sim, ar_config);
      backend = ar.get();
    }
  }

  Simulator sim;
  std::unique_ptr<FaultInjector> faults;
  std::unique_ptr<PsBackend> ps;
  std::unique_ptr<AllReduceBackend> ar;
  CommBackend* backend = nullptr;
};

// The scheduler Cores of `config`'s job on `fabric`: one per PS worker, or
// the single master Core that decides the (global) all-reduce order.
std::vector<std::unique_ptr<SchedulerCore>> MakeCores(const JobConfig& config,
                                                      Fabric& fabric) {
  const SchedulerConfig sched = SchedulerConfigFor(config);
  const int num_cores = (config.setup.arch == ArchType::kPs) ? config.num_machines : 1;
  std::vector<std::unique_ptr<SchedulerCore>> cores;
  for (int w = 0; w < num_cores; ++w) {
    cores.push_back(std::make_unique<SchedulerCore>(sched, fabric.backend, w, &fabric.sim,
                                                    fabric.faults.get(), config.trace,
                                                    config.metrics));
  }
  return cores;
}

// One training job on a Fabric: engines execute the model DAG, plugins wrap
// communication ops into CommTasks, and the Cores schedule them onto the
// fabric's backend — the paper's architecture. Under coordinated
// co-scheduling the Cores are shared with the other jobs.
class TrainingJob {
 public:
  // `tensor_offset` is the base of this job's tensor-id range on the
  // fabric's backend, disjoint from every other job's.
  TrainingJob(const JobConfig& config, Fabric& fabric,
              std::span<const std::unique_ptr<SchedulerCore>> cores, int64_t tensor_offset)
      : config_(config), fabric_(fabric), cores_(cores), tensor_offset_(tensor_offset) {
    BSCHED_CHECK((config_.timeseries == nullptr ||
                  config_.timeseries->registry() == config_.metrics) &&
                 "timeseries sampling reads this job's metric handles; set JobConfig::metrics "
                 "to the recorder's registry");
    BSCHED_CHECK(config_.num_machines >= 1);
    BSCHED_CHECK(config_.warmup_iters >= 1);
    BSCHED_CHECK(config_.measure_iters >= 1);
    BSCHED_CHECK(config_.model.num_layers() >= 1);
    // The paper's PyTorch plugin exists only for all-reduce (PyTorch has no
    // native PS support, §5).
    if (config_.setup.framework == Framework::kPyTorch) {
      BSCHED_CHECK(config_.setup.arch == ArchType::kAllReduce);
    }
    num_layers_ = config_.model.num_layers();
    total_iters_ = config_.warmup_iters + config_.measure_iters;
    // All-reduce workers are fully symmetric (identical model, batch and
    // compute) and the ring cost already accounts for the ring size, so one
    // representative worker chain suffices; PS workers contend at shards and
    // must all be simulated.
    sim_workers_ = (config_.setup.arch == ArchType::kPs) ? config_.num_machines : 1;
    iter_bp_end_.assign(total_iters_, SimTime());
    slots_.resize(static_cast<size_t>(sim_workers_) * num_layers_);
  }

  // Wires the job onto the fabric and launches its engines (events pending
  // in the simulator).
  void Prepare() {
    if (fabric_.ps != nullptr && !config_.ps_async) {
      ListenForAggregation();
    }
    BuildWorkers();
    for (DagEngine* engine : engines_) {
      engine->Start();
    }
    SetupTimeSeries();
  }

  // After the simulator drained: validate liveness and collect results.
  JobResult Finish() {
    const bool stalled = std::any_of(engines_.begin(), engines_.end(),
                                     [](const DagEngine* engine) { return !engine->AllDone(); });
    if (stalled) {
      for (const auto& core : cores_) {
        std::fprintf(stderr, "%s\n", core->DebugString().c_str());
      }
      if (fabric_.ps != nullptr) {
        std::fprintf(stderr, "%s\n", fabric_.ps->DebugString().c_str());
      }
    }
    BSCHED_CHECK(!stalled && "an engine stalled; the Core and PS state are dumped above");
    return Collect();
  }

 private:
  // ---- construction --------------------------------------------------------

  // Server-side notification: aggregated partitions release the
  // corresponding pull partitions. ByteScheduler pipelines at partition
  // granularity; vanilla frameworks issue the pull only once the whole
  // tensor's push completed (tensor-level chaining, §2.2). Invoked once per
  // worker.
  void ListenForAggregation() {
    const bool tensor_level = config_.mode == SchedMode::kVanilla;
    fabric_.ps->AddAggregationListener([this, tensor_level](int64_t tensor_id, int partition,
                                                            int w) {
      const int64_t layer = tensor_id - tensor_offset_;
      if (layer < 0 || layer >= num_layers_) {
        return;  // another co-scheduled job's tensor
      }
      TensorSlot& slot = Slot(w, static_cast<int>(layer));
      if (!tensor_level) {
        if (slot.pull != kInvalidCommTask) {
          cores_[w]->NotifyReadyPartition(slot.pull, partition);
        }
        return;
      }
      if (++slot.aggregated < slot.push_parts) {
        return;
      }
      slot.aggregated = 0;
      // Whole tensor aggregated. MXNet-style engines now issue the pull;
      // barrier engines (TF) complete the send op — the pull happens at the
      // start of the next step.
      if (slot.on_aggregated) {
        std::exchange(slot.on_aggregated, nullptr)();
      } else if (slot.pull != kInvalidCommTask) {
        cores_[w]->NotifyReady(slot.pull);
      }
    });
  }

  void BuildWorkers() {
    for (int w = 0; w < sim_workers_; ++w) {
      gpus_.push_back(std::make_unique<Resource>(&fabric_.sim));
      if (IsImperative(config_.setup.framework)) {
        imp_engines_.push_back(std::make_unique<ImperativeEngine>(&fabric_.sim));
        engines_.push_back(&imp_engines_.back()->dag());
        BuildImperativeWorker(w);
      } else {
        dag_engines_.push_back(std::make_unique<DagEngine>(&fabric_.sim));
        engines_.push_back(dag_engines_.back().get());
        BuildDeclarativeWorker(w);
      }
    }
  }

  // Registers one sampling scope per worker: its scheduler handles,
  // net.worker<w>.* link metrics and GPU probe. The scope stops at the first
  // tick after the worker's engine drained, keeping the simulation finite.
  void SetupTimeSeries() {
    if (config_.timeseries == nullptr) {
      return;
    }
    TimeSeriesRecorder& rec = *config_.timeseries;
    for (int w = 0; w < sim_workers_; ++w) {
      const DagEngine* engine = engines_[w];
      const std::string ws = std::to_string(w);
      const int scope =
          rec.AddScope("w" + ws, &fabric_.sim, [engine] { return !engine->AllDone(); });
      rec.SampleCounter(scope, "net.worker" + ws + ".up.bytes");
      rec.SampleCounter(scope, "net.worker" + ws + ".down.bytes");
      rec.SampleGauge(scope, "net.worker" + ws + ".up.inflight_bytes");
      rec.SampleSketch(scope, "net.worker" + ws + ".up.queue_ns");
      rec.SampleSketch(scope, "sched.w" + ws + ".queue_depth");
      rec.SampleSketch(scope, "sched.w" + ws + ".credit_in_use");
      rec.SampleCounter(scope, "sched.w" + ws + ".preemptions");
      const Resource* gpu = gpus_[w].get();
      rec.SampleProbe(scope, "gpu.w" + ws + ".busy_ns",
                      [gpu] { return gpu->busy_time().nanos(); });
      if (config_.dynamics.has_value() && config_.dynamics->enabled()) {
        // Per-link effective-rate gauges: the schedule scale times the AIMD
        // controller scale, read at tick time from the worker's own links.
        // Registered only when dynamics is enabled, so disabled-mode CSVs
        // stay byte-identical to pre-dynamics goldens.
        const Link* up = &fabric_.ps->worker_uplink(w);
        const Link* down = &fabric_.ps->worker_downlink(w);
        rec.SampleProbe(scope, "net.worker" + ws + ".up.rate_bps",
                        [up] { return static_cast<int64_t>(up->CurrentRateBps()); });
        rec.SampleProbe(scope, "net.worker" + ws + ".down.rate_bps",
                        [down] { return static_cast<int64_t>(down->CurrentRateBps()); });
      }
    }
    rec.Start();
  }

  // ---- shared plugin actions ----------------------------------------------

  // GPU compute op of `layer`'s forward or backward pass in iteration
  // `iter`. The last BP op (layer 0) records the iteration's BP-end
  // timestamp; a traced job records the op as an f<iter>_<layer> or
  // b<iter>_<layer> span, the names the critical-path analyzer reads.
  DagEngine::OpFn ComputeOp(int worker, int iter, int layer, bool backward) {
    const Layer& l = config_.model.layers[layer];
    const SimTime duration = backward ? l.bp_time : l.fp_time;
    Resource* gpu = gpus_[worker].get();
    return [this, gpu, worker, duration, iter, layer, backward](DagEngine::Done done) {
      const SimTime queued_at = fabric_.sim.Now();
      SimTime effective = duration;
      if (fabric_.faults != nullptr) {
        // Straggler episode: this worker's kernels run slower for a while.
        effective = fabric_.faults->ScaleCompute(worker, effective);
      }
      gpu->Submit(effective, [this, worker, queued_at, iter, layer, backward,
                             done = std::move(done)] {
        if (backward && layer == 0) {
          iter_bp_end_[iter] = std::max(iter_bp_end_[iter], fabric_.sim.Now());
        }
        if (config_.trace != nullptr) {
          config_.trace->AddSpan(
              "worker" + std::to_string(worker) + "/gpu",
              (backward ? "b" : "f") + std::to_string(iter) + "_" + std::to_string(layer),
              queued_at, fabric_.sim.Now());
        }
        done();
      });
    };
  }

  // Starts the full PS communication for one tensor on `worker`'s Core: a
  // push task plus a pull task whose partitions become ready at partition
  // granularity (§4.1 assumption 3: the done part of a push can be pulled
  // while the rest is still in flight). In synchronous training a pull
  // partition is ready when the shard finished aggregating it (server-side
  // notification via the aggregation listener); in asynchronous training it
  // is ready as soon as this worker's own push partition is acked.
  // `on_done` fires when the pull completes.
  void StartPsTensor(int worker, int layer, std::function<void()> on_done) {
    SchedulerCore& core = *cores_[worker];
    TensorSlot& slot = Slot(worker, layer);
    const CommTaskId pull_id =
        core.Enqueue(Desc(worker, layer, CommOpType::kPull, std::move(on_done)));
    slot.pull = pull_id;

    CommTaskDesc push = Desc(worker, layer, CommOpType::kPush, nullptr);
    if (config_.ps_async) {
      if (config_.mode == SchedMode::kVanilla) {
        // Vanilla engines chain pull after the *whole* push (the paper's 50%
        // duplex-waste observation, §2.2).
        push.on_finish = [&core, pull_id] { core.NotifyReady(pull_id); };
      } else {
        push.on_partition_finish = [&core, pull_id](int partition) {
          core.NotifyReadyPartition(pull_id, partition);
        };
      }
    }
    const CommTaskId push_id = core.Enqueue(std::move(push));
    slot.push_parts = core.NumPartitions(push_id);
    core.NotifyReady(push_id);
  }

  // The CommTask of one tensor's `type` operation, scheduled by `worker`'s
  // Core; `on_finish` fires when all its partitions completed.
  CommTaskDesc Desc(int worker, int layer, CommOpType type,
                    std::function<void()> on_finish) const {
    const Layer& l = config_.model.layers[layer];
    CommTaskDesc desc;
    desc.worker = worker;
    desc.layer = layer;
    desc.tensor_bytes = l.param_bytes;
    desc.type = type;
    if (config_.trace != nullptr) {
      desc.name = l.name + "." + ToString(type);  // read only by the Core's trace
    }
    desc.tensor_id = tensor_offset_ + layer;
    desc.partition_bytes_override = PartitionOverride(layer);
    desc.on_finish = std::move(on_finish);
    return desc;
  }

  // Per-task partition override. Vanilla ps-lite splits tensors above its
  // big-array bound evenly across the shards (one slice per server, each
  // still a single message) — except row-sparse tensors, which always land
  // whole on one shard. In ByteScheduler mode, per-layer partition sizes
  // (the §7 "dynamic partition size" extension) take precedence over the
  // uniform scheduler-config size.
  Bytes PartitionOverride(int layer) const {
    const Layer& l = config_.model.layers[layer];
    if (config_.mode == SchedMode::kVanilla) {
      // The big-array split is a ps-lite behaviour; vanilla Horovod/NCCL
      // all-reduces whole tensors.
      if (config_.setup.arch == ArchType::kPs && l.splittable && l.param_bytes > MiB(1) &&
          config_.num_machines > 1) {
        return (l.param_bytes + config_.num_machines - 1) / config_.num_machines;
      }
      return 0;
    }
    if (static_cast<int>(config_.per_layer_partition.size()) == config_.model.num_layers() &&
        config_.per_layer_partition[layer] > 0) {
      return config_.per_layer_partition[layer];
    }
    return 0;
  }

  // TensorFlow-style vanilla PS path, split across the step barrier: the
  // send op completes once the gradient is applied on the shard; parameters
  // are read back at the *start* of the next step (no cross-iteration pull
  // overlap — a key reason scheduling gains most on barrier frameworks).
  void StartPsPush(int worker, int layer, std::function<void()> on_done) {
    SchedulerCore& core = *cores_[worker];
    TensorSlot& slot = Slot(worker, layer);
    if (!config_.ps_async) {
      // The send op completes once the whole tensor is aggregated.
      slot.on_aggregated = std::exchange(on_done, nullptr);
    }
    const CommTaskId push_id =
        core.Enqueue(Desc(worker, layer, CommOpType::kPush, std::move(on_done)));
    slot.push_parts = core.NumPartitions(push_id);
    core.NotifyReady(push_id);
  }

  void StartPsPull(int worker, int layer, std::function<void()> on_done) {
    SchedulerCore& core = *cores_[worker];
    // The step barrier has passed, so aggregation is already complete.
    core.NotifyReady(core.Enqueue(Desc(worker, layer, CommOpType::kPull, std::move(on_done))));
  }

  // Starts (or joins) the all-reduce for one tensor. With multiple machines
  // the master Core runs one operation per tensor; `on_done` fires when the
  // ring pass completes.
  void StartAllReduceTensor(int layer, std::function<void()> on_done) {
    SchedulerCore& core = *cores_[0];
    core.NotifyReady(core.Enqueue(Desc(0, layer, CommOpType::kAllReduce, std::move(on_done))));
  }

  void StartCommTensor(int worker, int layer, std::function<void()> on_done) {
    if (config_.trace != nullptr) {
      const SimTime start = fabric_.sim.Now();
      const std::string track = "worker" + std::to_string(worker) + "/comm";
      const std::string name =
          config_.model.layers[layer].name +
          (config_.setup.arch == ArchType::kPs ? ".push+pull" : ".allreduce");
      on_done = [this, start, track, name, inner = std::move(on_done)] {
        config_.trace->AddSpan(track, name, start, fabric_.sim.Now());
        inner();
      };
    }
    if (config_.setup.arch == ArchType::kPs) {
      StartPsTensor(worker, layer, std::move(on_done));
    } else {
      StartAllReduceTensor(layer, std::move(on_done));
    }
  }

  // ---- declarative frameworks (MXNet, TensorFlow) -------------------------

  void BuildDeclarativeWorker(int worker) {
    DagEngine& dag = *engines_[worker];
    const bool barrier = HasGlobalBarrier(config_.setup.framework);
    const bool scheduled = config_.mode != SchedMode::kVanilla;

    // ByteScheduler on a barrier framework (Fig. 7) crosses the barrier: the
    // next iteration's forward ops wait on the layer's Dependency Proxy.
    const bool crossing = scheduled && barrier && !config_.disable_barrier_crossing;

    std::vector<OpId> prev_comm(num_layers_, kInvalidOp);  // in-engine comm ops
    OpId prev_barrier = kInvalidOp;

    for (int k = 0; k < total_iters_; ++k) {
      // Forward chain.
      std::vector<OpId> f(num_layers_);
      for (int i = 0; i < num_layers_; ++i) {
        f[i] = dag.AddOp(ComputeOp(worker, k, i, /*backward=*/false));
        if (i > 0) {
          dag.AddDep(f[i - 1], f[i]);
        }
      }
      // Cross-iteration gating of forward compute.
      {
        // Layer-wise dependencies: engine edges (MXNet, Fig. 6; or TF's
        // step-start variable reads) or ByteScheduler's out-of-engine proxies
        // (Fig. 8).
        for (int i = 0; i < num_layers_; ++i) {
          if (prev_comm[i] != kInvalidOp) {
            dag.AddDep(prev_comm[i], f[i]);
          }
          if (crossing && k > 0) {
            OpId proxy_op = dag.AddOp(Proxy(worker, i).WaitFor(k));
            dag.AddDep(proxy_op, f[i]);
            if (i > 0) {
              // The proxy guards this layer's forward op within the chain.
              dag.AddDep(f[i - 1], proxy_op);
            }
          }
        }
      }
      if (barrier && prev_barrier != kInvalidOp) {
        // Global barrier between iterations (Fig. 3): nothing of iteration k
        // starts before it passes.
        dag.AddDep(prev_barrier, f[0]);
      }

      // Backward chain.
      std::vector<OpId> b(num_layers_);
      for (int i = num_layers_ - 1; i >= 0; --i) {
        b[i] = dag.AddOp(ComputeOp(worker, k, i, /*backward=*/true));
        if (i == num_layers_ - 1) {
          dag.AddDep(f[num_layers_ - 1], b[i]);
        } else {
          dag.AddDep(b[i + 1], b[i]);
        }
      }

      // Communication ops, posted per layer after its gradient is ready.
      // TensorFlow's vanilla PS path has no cross-iteration pull overlap:
      // the send op finishes when the shard applied the gradient; variables
      // are read back only at the next step's start (after the barrier).
      const bool tf_vanilla_ps =
          !scheduled && barrier && config_.setup.arch == ArchType::kPs;
      std::vector<OpId> comm(num_layers_);
      std::fill(prev_comm.begin(), prev_comm.end(), kInvalidOp);
      for (int i = 0; i < num_layers_; ++i) {
        if (tf_vanilla_ps) {
          comm[i] = dag.AddOp([this, worker, i](DagEngine::Done done) {
            StartPsPush(worker, i, std::move(done));
          });
        } else if (crossing) {
          // The engine op is asynchronous: it hands the tensor to the Core
          // and returns so the barrier can pass; the layer's Dependency Proxy
          // blocks the next iteration's forward op until notify_finish.
          DependencyProxy* proxy = &Proxy(worker, i);
          comm[i] = dag.AddOp([this, worker, i, proxy](DagEngine::Done done) {
            StartCommTensor(worker, i, [proxy] { proxy->Release(); });
            done();  // returns immediately: communication runs out-of-engine
          });
        } else {
          // Vanilla, or ByteScheduler on a barrier-free framework (Fig. 6):
          // the engine op completes when the communication finishes.
          comm[i] = dag.AddOp([this, worker, i](DagEngine::Done done) {
            StartCommTensor(worker, i, std::move(done));
          });
          prev_comm[i] = comm[i];
        }
        dag.AddDep(b[i], comm[i]);
      }

      if (barrier) {
        OpId barrier_op = dag.AddOp(nullptr);
        for (int i = 0; i < num_layers_; ++i) {
          dag.AddDep(comm[i], barrier_op);
        }
        prev_barrier = barrier_op;
        if (tf_vanilla_ps) {
          // Step-start variable reads: issued after the barrier, each gating
          // its layer's forward op of the next iteration.
          for (int i = 0; i < num_layers_; ++i) {
            OpId pull_op = dag.AddOp([this, worker, i](DagEngine::Done done) {
              StartPsPull(worker, i, std::move(done));
            });
            dag.AddDep(barrier_op, pull_op);
            prev_comm[i] = pull_op;
          }
        }
      }
    }
  }

  // ---- imperative framework (PyTorch) -------------------------------------

  void BuildImperativeWorker(int worker) {
    ImperativeEngine& eng = *imp_engines_[worker];
    const bool scheduled = config_.mode != SchedMode::kVanilla;

    if (scheduled) {
      for (int i = 0; i < num_layers_; ++i) {
        DependencyProxy* proxy = &Proxy(worker, i);
        // register_forward_pre_hook: blocks this layer's forward compute
        // until its previous-iteration communication completed (Fig. 8).
        // Every iteration's op runs a copy of the hook; the proxy counts
        // their starts.
        eng.RegisterForwardPreHook(i, proxy->WaitForNext());
        // register_hook on the gradient: hands the tensor to the Core the
        // moment BP produces it, then returns (communication runs
        // out-of-engine, crossing the step barrier).
        eng.RegisterBackwardHook(i, [this, proxy, i, worker](DagEngine::Done done) {
          StartCommTensor(worker, i, [proxy] { proxy->Release(); });
          done();
        });
      }
    }

    for (int k = 0; k < total_iters_; ++k) {
      for (int i = 0; i < num_layers_; ++i) {
        eng.PostForward(i, ComputeOp(worker, k, i, /*backward=*/false));
      }
      std::vector<OpId> comm_ops;
      for (int i = num_layers_ - 1; i >= 0; --i) {
        OpId b_op = eng.PostBackward(i, ComputeOp(worker, k, i, /*backward=*/true));
        if (!scheduled) {
          // Vanilla Horovod: background all-reduce launched in gradient-ready
          // order; the optimizer step below waits for all of them.
          OpId comm = eng.PostBackground([this, worker, i](DagEngine::Done done) {
            StartCommTensor(worker, i, std::move(done));
          });
          eng.After(b_op, comm);
          comm_ops.push_back(comm);
        }
      }
      // optimizer.step(): the inter-iteration global barrier of Fig. 3. With
      // ByteScheduler it no longer waits for communication (§3.4).
      OpId step = eng.Post(nullptr);
      for (OpId comm : comm_ops) {
        eng.After(comm, step);
      }
    }
  }

  // ---- results -------------------------------------------------------------

  JobResult Collect() {
    JobResult result;
    result.sim_events = fabric_.sim.processed_events();
    for (const auto& core : cores_) {
      result.subtasks_started += core->subtasks_started();
      result.subtasks_abandoned += core->subtasks_abandoned();
      result.peaks.core_records += core->peak_records();
    }
    result.peaks.sim_events = fabric_.sim.AllocatedSlots();
    result.iter_end_times = iter_bp_end_;
    if (fabric_.faults != nullptr) {
      result.fault_stats = fabric_.faults->stats();
    }
    const SimTime start = iter_bp_end_[config_.warmup_iters - 1];
    const SimTime end = iter_bp_end_[total_iters_ - 1];
    const double span_sec = (end - start).ToSeconds();
    BSCHED_CHECK(span_sec > 0);
    result.avg_iter_time = SimTime::Seconds(span_sec / config_.measure_iters);
    const double samples_per_iter =
        static_cast<double>(config_.total_gpus()) * config_.model.batch_per_gpu;
    result.samples_per_sec = samples_per_iter / result.avg_iter_time.ToSeconds();
    if (const PsBackend* ps = fabric_.ps.get()) {
      result.shard_load_imbalance = ps->ShardLoadImbalance();
      result.rate_ctrl_decreases = ps->rate_ctrl_decreases();
      result.rate_ctrl_increases = ps->rate_ctrl_increases();
      result.link_repaces = ps->link_repaces();
      result.peaks.ps_hops = ps->peak_hops();
      result.peaks.link_entries = ps->peak_link_entries();
    }
    ExportMetrics(result);
    return result;
  }

  // End-of-run subsystem totals into the metrics registry (on top of the
  // hot-path histograms/counters recorded while the simulation ran).
  void ExportMetrics(const JobResult& result) {
    if (config_.metrics == nullptr) {
      return;
    }
    MetricsRegistry& reg = *config_.metrics;
    for (const auto& core : cores_) {
      core->ExportMetrics();
    }
    if (fabric_.ps != nullptr) {
      fabric_.ps->ExportMetrics();
    }
    if (fabric_.ar != nullptr) {
      fabric_.ar->ExportMetrics();
    }
    const Simulator& sim = fabric_.sim;
    reg.gauge("sim.processed_events")->Set(static_cast<int64_t>(sim.processed_events()));
    reg.gauge("sim.allocated_slots")->Set(static_cast<int64_t>(sim.AllocatedSlots()));
    reg.gauge("sim.skipped_cancelled")->Set(static_cast<int64_t>(sim.skipped_cancelled()));
    reg.gauge("sim.compactions")->Set(static_cast<int64_t>(sim.compactions()));
    for (size_t w = 0; w < gpus_.size(); ++w) {
      reg.gauge("gpu.w" + std::to_string(w) + ".busy_ns")
          ->Set(gpus_[w]->busy_time().nanos());
    }
    // Fault/recovery counters are always exported (zero without chaos), so
    // obs_report and the acceptance checks see a stable key set.
    reg.counter("fault.core_retries")->Inc(result.fault_stats.core_retries);
    reg.counter("fault.core_timeouts")->Inc(result.fault_stats.core_timeouts);
    reg.counter("fault.core_late_completions")->Inc(result.fault_stats.core_late_completions);
    reg.counter("fault.core_abandoned")->Inc(result.fault_stats.core_abandoned);
    reg.counter("fault.backend_retransmits")->Inc(result.fault_stats.backend_retransmits);
    reg.counter("fault.drops_injected")->Inc(result.fault_stats.drops_injected);
    reg.counter("fault.delays_injected")->Inc(result.fault_stats.delays_injected);
  }

  // PS state of one (worker, layer) tensor.
  struct TensorSlot {
    // Latest pull task; target of the aggregation listener in synchronous
    // mode.
    CommTaskId pull = kInvalidCommTask;
    // Partition count of the current push task, and how many of them have
    // aggregated (tensor-level vanilla pull chaining).
    int push_parts = 0;
    int aggregated = 0;
    // TF-vanilla: completion of the in-engine send op, fired when the whole
    // tensor is aggregated on its shard.
    std::function<void()> on_aggregated;
  };

  TensorSlot& Slot(int worker, int layer) { return slots_[worker * num_layers_ + layer]; }

  // The Dependency Proxy of one (worker, layer), allocated for all of them
  // on first use: only jobs whose communication crosses the iteration
  // boundary out-of-engine have any.
  DependencyProxy& Proxy(int worker, int layer) {
    if (proxies_.empty()) {
      proxies_ = std::vector<DependencyProxy>(sim_workers_ * num_layers_);
    }
    return proxies_[worker * num_layers_ + layer];
  }

  const JobConfig& config_;
  Fabric& fabric_;
  std::span<const std::unique_ptr<SchedulerCore>> cores_;
  int64_t tensor_offset_ = 0;
  int num_layers_ = 0;
  int total_iters_ = 0;
  int sim_workers_ = 0;

  std::vector<std::unique_ptr<Resource>> gpus_;
  // Per-worker engine DAG; the engines themselves live in one of the two
  // owners below, by framework kind.
  std::vector<DagEngine*> engines_;
  std::vector<std::unique_ptr<DagEngine>> dag_engines_;
  std::vector<std::unique_ptr<ImperativeEngine>> imp_engines_;
  // [worker * num_layers_ + layer]; see Proxy().
  std::vector<DependencyProxy> proxies_;
  // BP-finish stamp per iteration: the slowest worker's.
  std::vector<SimTime> iter_bp_end_;
  // [worker * num_layers_ + layer]; PS jobs only.
  std::vector<TensorSlot> slots_;
};

// The one runner: builds the Fabric from the first job, gives each job its
// Cores (its own under kIndependent, one shared set under kCoordinated) and
// a disjoint tensor-id range, runs the simulation and collects every job.
std::vector<JobResult> RunOnFabric(std::span<const JobConfig> configs,
                                   CoschedulePolicy policy) {
  Fabric fabric(configs.front());
  std::vector<std::vector<std::unique_ptr<SchedulerCore>>> cores;
  cores.reserve(configs.size());
  if (policy == CoschedulePolicy::kCoordinated) {
    cores.push_back(MakeCores(configs.front(), fabric));
  }
  // Disjoint tensor-id ranges keep the jobs' PS aggregation slots and shard
  // assignment apart on the shared backend.
  constexpr int64_t kTensorStride = 1 << 20;
  std::vector<std::unique_ptr<TrainingJob>> jobs;
  jobs.reserve(configs.size());
  for (size_t j = 0; j < configs.size(); ++j) {
    if (policy == CoschedulePolicy::kIndependent) {
      cores.push_back(MakeCores(configs[j], fabric));
    }
    jobs.push_back(std::make_unique<TrainingJob>(configs[j], fabric, cores.back(),
                                                 static_cast<int64_t>(j) * kTensorStride));
    jobs.back()->Prepare();
  }
  fabric.sim.Run();
  std::vector<JobResult> results;
  results.reserve(jobs.size());
  for (auto& job : jobs) {
    results.push_back(job->Finish());
  }
  return results;
}

}  // namespace

JobResult RunTrainingJob(const JobConfig& config) {
  return RunOnFabric({&config, 1}, CoschedulePolicy::kIndependent).front();
}

std::vector<JobResult> RunCoscheduledPsJobs(const std::vector<JobConfig>& jobs,
                                            CoschedulePolicy policy) {
  BSCHED_CHECK(!jobs.empty());
  // The shared Fabric is built from the first job, so every job must agree
  // with it, and none may ask for what it would ignore.
  const JobConfig& first = jobs.front();
  for (const JobConfig& job : jobs) {
    BSCHED_CHECK(job.setup.arch == ArchType::kPs);
    BSCHED_CHECK(job.num_machines == first.num_machines);
    BSCHED_CHECK(job.bandwidth == first.bandwidth);
    BSCHED_CHECK(job.setup.transport.name == first.setup.transport.name);
    BSCHED_CHECK(job.ps_async == first.ps_async);
    BSCHED_CHECK(job.delayed_notify == first.delayed_notify);
    BSCHED_CHECK(!job.chaos.has_value() && "chaos mode is unsupported for co-scheduled jobs");
    BSCHED_CHECK((!job.dynamics.has_value() || !job.dynamics->enabled()) &&
                 "dynamic network is unsupported for co-scheduled jobs");
    // One flow bookkeeping and one set of metric names per fabric.
    BSCHED_CHECK(job.trace == nullptr && job.metrics == nullptr && job.timeseries == nullptr &&
                 "trace, metrics and timeseries are unsupported for co-scheduled jobs");
  }
  return RunOnFabric(jobs, policy);
}

double LinearScalingSpeed(const ModelProfile& model, int total_gpus) {
  const double iter_sec = model.TotalComputeTime().ToSeconds();
  return total_gpus * model.batch_per_gpu / iter_sec;
}

TunedParams DefaultTunedParams(const ModelProfile& model, ArchType arch,
                               const TransportModel& transport, Bandwidth bandwidth) {
  TunedParams params{};
  if (arch == ArchType::kPs) {
    // Around half a millisecond of effective line rate balances preemption
    // granularity against per-partition overhead (§4.1).
    const double rate = transport.EffectiveRate(bandwidth).bytes_per_sec();
    const Bytes bdp = static_cast<Bytes>(rate * 500e-6);
    params.partition_bytes = std::clamp<Bytes>(bdp, KiB(256), MiB(16));
    params.credit_bytes = params.partition_bytes * 5;
  } else {
    // All-reduce pays a ring-size-dependent cost per operation, so large
    // partitions win (Table 1's NCCL column).
    params.partition_bytes = std::clamp<Bytes>(model.TotalParamBytes() / 6, MiB(24), MiB(96));
    params.credit_bytes = params.partition_bytes * 2;
  }
  return params;
}

}  // namespace bsched
