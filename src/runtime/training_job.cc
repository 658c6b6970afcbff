#include "src/runtime/training_job.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
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
#include "src/obs/obs.h"
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

// Builds and runs one training job. By default owns every simulation entity;
// co-scheduled jobs (§7) instead share a simulator, a PS fabric and —
// under the coordinated policy — the per-worker scheduler Cores. The
// structure mirrors the paper's architecture: engines execute the model DAG,
// plugins wrap communication ops into CommTasks, per-worker Cores schedule
// them onto a shared backend.
class TrainingJob {
 public:
  // External infrastructure for co-scheduled jobs.
  struct Shared {
    Simulator* sim = nullptr;
    PsBackend* ps = nullptr;
    // Non-empty: shared per-worker Cores (coordinated co-scheduling).
    std::vector<SchedulerCore*> cores;
    // Disjoint tensor-id range base for this job.
    int64_t tensor_offset = 0;
  };

  explicit TrainingJob(const JobConfig& config) : TrainingJob(config, Shared{}) {}

  TrainingJob(const JobConfig& config, const Shared& shared)
      : config_(config), shared_(shared) {
    sim_ = shared_.sim != nullptr ? shared_.sim : &owned_sim_;
    if ((config_.trace != nullptr || config_.metrics != nullptr) && shared_.sim == nullptr) {
      // Observability is wired only for jobs owning their substrate; flow
      // bookkeeping is single-threaded per simulator, and co-scheduled jobs
      // would interleave flows unpredictably.
      obs_storage_ = ObsContext(config_.trace, config_.metrics);
      obs_ = &obs_storage_;
    }
    if (config_.timeseries != nullptr) {
      BSCHED_CHECK(config_.metrics != nullptr &&
                   "timeseries sampling reads metric handles; set JobConfig::metrics too");
      BSCHED_CHECK(shared_.sim == nullptr &&
                   "timeseries sampling is wired only for jobs owning their substrate");
      BSCHED_CHECK(config_.timeseries->registry() == config_.metrics &&
                   "the recorder must be registered against this job's metrics registry");
    }
    if (config_.chaos.has_value()) {
      // Chaos owns its whole substrate: a shared fabric would splice one
      // job's fault episodes into every co-scheduled job's timeline.
      BSCHED_CHECK(shared_.sim == nullptr && shared_.ps == nullptr &&
                   "chaos mode is unsupported with shared (co-scheduled) infrastructure");
      faults_ = std::make_unique<FaultInjector>(*config_.chaos, sim_, config_.trace);
    }
    if (config_.dynamics.has_value() && config_.dynamics->enabled()) {
      BSCHED_CHECK(config_.setup.arch == ArchType::kPs &&
                   "the dynamic-network fabric is wired for the PS architecture");
      BSCHED_CHECK(shared_.sim == nullptr && shared_.ps == nullptr &&
                   "dynamic network is unsupported with shared (co-scheduled) infrastructure");
    }
    if (shared_.ps != nullptr) {
      BSCHED_CHECK(config_.setup.arch == ArchType::kPs);
      BSCHED_CHECK(shared_.ps->config().num_workers == config_.num_machines);
    }
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
  }

  // Builds the substrate and launches the engines (events pending in sim).
  void Prepare() {
    BuildBackend();
    BuildCores();
    BuildWorkers();
    for (auto& engine : dag_engines_) {
      engine->Start();
    }
    for (auto& engine : imp_engines_) {
      engine->Start();
    }
    SetupTimeSeries();
  }

  // After the simulator drained: validate liveness and collect results.
  JobResult Finish() {
    if (getenv("BSCHED_DEBUG_DEADLOCK") != nullptr) {
      for (auto& core : cores_) {
        std::fprintf(stderr, "%s\n", core->DebugString().c_str());
      }
      if (ps_ != nullptr) {
        std::fprintf(stderr, "%s\n", ps_->DebugString().c_str());
      }
    }
    for (auto& engine : dag_engines_) {
      BSCHED_CHECK(engine->AllDone());
    }
    for (auto& engine : imp_engines_) {
      BSCHED_CHECK(engine->AllDone());
    }
    return Collect();
  }

  JobResult Run() {
    Prepare();
    sim_->Run();
    return Finish();
  }

 private:
  // ---- construction of the substrate -------------------------------------

  void BuildBackend() {
    if (config_.setup.arch == ArchType::kPs) {
      if (shared_.ps != nullptr) {
        ps_ = shared_.ps;
      } else {
        PsConfig ps;
        ps.num_workers = config_.num_machines;
        ps.num_shards = config_.num_machines;
        ps.link_rate = config_.bandwidth;
        ps.transport = config_.setup.transport;
        ps.synchronous = !config_.ps_async;
        if (faults_ != nullptr) {
          ps.faults = faults_.get();
          ps.push_ack_timeout = config_.chaos->retry_timeout;
          ps.retry_backoff = config_.chaos->retry_backoff;
          ps.max_push_retries = config_.chaos->max_retries;
        }
        ps.obs = obs_;
        ps.delayed_notify = config_.delayed_notify;
        if (config_.dynamics.has_value() && config_.dynamics->enabled()) {
          ps.dynamics = &*config_.dynamics;
        }
        owned_ps_ = std::make_unique<PsBackend>(sim_, ps);
        ps_ = owned_ps_.get();
      }
      backend_ = ps_;
      pull_task_ids_.assign(sim_workers_,
                            std::vector<CommTaskId>(num_layers_, kInvalidCommTask));
      agg_counts_.assign(sim_workers_, std::vector<int>(num_layers_, 0));
      push_parts_.assign(sim_workers_, std::vector<int>(num_layers_, 0));
      agg_done_cbs_.assign(sim_workers_, std::vector<std::function<void()>>(num_layers_));
      if (!config_.ps_async) {
        // Server-side notification: aggregated partitions release the
        // corresponding pull partitions. ByteScheduler pipelines at partition
        // granularity; vanilla frameworks issue the pull only once the whole
        // tensor's push completed (tensor-level chaining, §2.2).
        const bool tensor_level = config_.mode == SchedMode::kVanilla;
        // Invoked once per worker.
        ps_->AddAggregationListener([this, tensor_level](int64_t tensor_id, int partition,
                                                         int w) {
          const int64_t local = tensor_id - shared_.tensor_offset;
          if (local < 0 || local >= num_layers_) {
            return;  // another co-scheduled job's tensor
          }
          const int layer = static_cast<int>(local);
          if (!tensor_level) {
            const CommTaskId id = pull_task_ids_[w][layer];
            if (id != kInvalidCommTask) {
              cores_[w]->NotifyReadyPartition(id, partition);
            }
            return;
          }
          if (++agg_counts_[w][layer] < push_parts_[w][layer]) {
            return;
          }
          agg_counts_[w][layer] = 0;
          // Whole tensor aggregated. MXNet-style engines now issue the
          // pull; barrier engines (TF) complete the send op — the pull
          // happens at the start of the next step.
          if (agg_done_cbs_[w][layer]) {
            auto cb = std::move(agg_done_cbs_[w][layer]);
            agg_done_cbs_[w][layer] = nullptr;
            cb();
          } else if (pull_task_ids_[w][layer] != kInvalidCommTask) {
            cores_[w]->NotifyReady(pull_task_ids_[w][layer]);
          }
        });
      }
    } else {
      AllReduceConfig ar = AllReduceConfig::Nccl(config_.total_gpus(), config_.bandwidth,
                                                 config_.setup.transport);
      if (config_.mode == SchedMode::kVanilla) {
        // Vanilla Horovod negotiates each tensor across workers in periodic
        // cycles (default cycle_time ~5 ms); ByteScheduler's master-ordered
        // Core removes that per-tensor negotiation (§5).
        ar.nego_cycle = SimTime::Millis(5);
      }
      if (faults_ != nullptr) {
        ar.faults = faults_.get();
      }
      ar.obs = obs_;
      ar_ = std::make_unique<AllReduceBackend>(sim_, ar);
      backend_ = ar_.get();
    }
  }

  void BuildCores() {
    if (!shared_.cores.empty()) {
      // Coordinated co-scheduling: every job's tensors flow through the same
      // per-worker Cores, competing by (job-local) layer priority.
      BSCHED_CHECK(static_cast<int>(shared_.cores.size()) == sim_workers_);
      cores_ = shared_.cores;
      return;
    }
    SchedulerConfig sched = SchedulerConfigFor(config_);
    if (faults_ != nullptr) {
      // Arm the Cores' timeout/retry recovery with the plan's retry knobs.
      sched.retry.timeout = config_.chaos->retry_timeout;
      sched.retry.backoff = config_.chaos->retry_backoff;
      sched.retry.max_retries = config_.chaos->max_retries;
    }
    // All-reduce: a single master Core decides the (global) operation order.
    const int num_cores = (config_.setup.arch == ArchType::kPs) ? sim_workers_ : 1;
    for (int w = 0; w < num_cores; ++w) {
      owned_cores_.push_back(
          std::make_unique<SchedulerCore>(sched, backend_, w, sim_, faults_.get(), obs_));
      cores_.push_back(owned_cores_.back().get());
    }
  }

  void BuildWorkers() {
    for (int w = 0; w < sim_workers_; ++w) {
      gpus_.push_back(std::make_unique<Resource>(sim_, "gpu" + std::to_string(w)));
      if (IsImperative(config_.setup.framework)) {
        imp_engines_.push_back(std::make_unique<ImperativeEngine>(sim_));
        BuildImperativeWorker(w);
      } else {
        dag_engines_.push_back(std::make_unique<DagEngine>(sim_));
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
      std::function<bool()> active;
      if (!dag_engines_.empty()) {
        const DagEngine* engine = dag_engines_[w].get();
        active = [engine] { return !engine->AllDone(); };
      } else {
        const ImperativeEngine* engine = imp_engines_[w].get();
        active = [engine] { return !engine->AllDone(); };
      }
      const std::string ws = std::to_string(w);
      const int scope = rec.AddScope("w" + ws, sim_, std::move(active));
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
      if (config_.dynamics.has_value() && config_.dynamics->enabled() && ps_ != nullptr) {
        // Per-link effective-rate gauges: the schedule scale times the AIMD
        // controller scale, read at tick time from the worker's own links.
        // Registered only when dynamics is enabled, so disabled-mode CSVs
        // stay byte-identical to pre-dynamics goldens.
        const Link* up = &ps_->worker_uplink(w);
        const Link* down = &ps_->worker_downlink(w);
        rec.SampleProbe(scope, "net.worker" + ws + ".up.rate_bps",
                        [up] { return static_cast<int64_t>(up->CurrentRateBps()); });
        rec.SampleProbe(scope, "net.worker" + ws + ".down.rate_bps",
                        [down] { return static_cast<int64_t>(down->CurrentRateBps()); });
      }
    }
    rec.Start();
  }

  // ---- shared plugin actions ----------------------------------------------

  // GPU compute op; optionally records a trace span and the BP-end timestamp
  // of iteration `bp_end_iter` (>= 0 only for each iteration's last BP op).
  DagEngine::OpFn ComputeOp(int worker, SimTime duration, std::string name = "",
                            int bp_end_iter = -1) {
    Resource* gpu = gpus_[worker].get();
    return [this, gpu, worker, duration, name = std::move(name),
            bp_end_iter](DagEngine::Done done) {
      const SimTime queued_at = sim_->Now();
      SimTime effective = duration;
      if (faults_ != nullptr) {
        // Straggler episode: this worker's kernels run slower for a while.
        effective = faults_->ScaleCompute(worker, effective);
      }
      gpu->Submit(effective, [this, worker, queued_at, name, bp_end_iter,
                             done = std::move(done)] {
        if (bp_end_iter >= 0) {
          iter_bp_end_[bp_end_iter] = std::max(iter_bp_end_[bp_end_iter], sim_->Now());
        }
        if (config_.trace != nullptr) {
          config_.trace->AddSpan("worker" + std::to_string(worker) + "/gpu", name, queued_at,
                                 sim_->Now());
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
    const Bytes bytes = config_.model.layers[layer].param_bytes;

    const Bytes partition_override = PartitionOverride(layer);

    CommTaskDesc pull;
    pull.worker = worker;
    pull.layer = layer;
    pull.tensor_bytes = bytes;
    pull.type = CommOpType::kPull;
    pull.name = config_.model.layers[layer].name + ".pull";
    pull.tensor_id = shared_.tensor_offset + layer;
    pull.partition_bytes_override = partition_override;
    pull.on_finish = std::move(on_done);
    const CommTaskId pull_id = core.Enqueue(std::move(pull));
    pull_task_ids_[worker][layer] = pull_id;

    CommTaskDesc push;
    push.worker = worker;
    push.layer = layer;
    push.tensor_bytes = bytes;
    push.type = CommOpType::kPush;
    push.name = config_.model.layers[layer].name + ".push";
    push.tensor_id = shared_.tensor_offset + layer;
    push.partition_bytes_override = partition_override;
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
    push_parts_[worker][layer] = core.NumPartitions(push_id);
    core.NotifyReady(push_id);
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
    CommTaskDesc push;
    push.worker = worker;
    push.layer = layer;
    push.tensor_bytes = config_.model.layers[layer].param_bytes;
    push.type = CommOpType::kPush;
    push.name = config_.model.layers[layer].name + ".push";
    push.tensor_id = shared_.tensor_offset + layer;
    push.partition_bytes_override = PartitionOverride(layer);
    if (config_.ps_async) {
      push.on_finish = std::move(on_done);
    } else {
      agg_done_cbs_[worker][layer] = std::move(on_done);
    }
    const CommTaskId push_id = core.Enqueue(std::move(push));
    push_parts_[worker][layer] = core.NumPartitions(push_id);
    core.NotifyReady(push_id);
  }

  void StartPsPull(int worker, int layer, std::function<void()> on_done) {
    SchedulerCore& core = *cores_[worker];
    CommTaskDesc pull;
    pull.worker = worker;
    pull.layer = layer;
    pull.tensor_bytes = config_.model.layers[layer].param_bytes;
    pull.type = CommOpType::kPull;
    pull.name = config_.model.layers[layer].name + ".pull";
    pull.tensor_id = shared_.tensor_offset + layer;
    pull.partition_bytes_override = PartitionOverride(layer);
    pull.on_finish = std::move(on_done);
    const CommTaskId pull_id = core.Enqueue(std::move(pull));
    // The step barrier has passed, so aggregation is already complete.
    core.NotifyReady(pull_id);
  }

  // Starts (or joins) the all-reduce for one tensor. With multiple machines
  // the master Core runs one operation per tensor; `on_done` fires when the
  // ring pass completes.
  void StartAllReduceTensor(int layer, std::function<void()> on_done) {
    SchedulerCore& core = *cores_[0];
    CommTaskDesc task;
    task.worker = 0;
    task.layer = layer;
    task.tensor_bytes = config_.model.layers[layer].param_bytes;
    task.type = CommOpType::kAllReduce;
    task.name = config_.model.layers[layer].name + ".allreduce";
    task.partition_bytes_override = PartitionOverride(layer);
    task.on_finish = std::move(on_done);
    const CommTaskId id = core.Enqueue(std::move(task));
    core.NotifyReady(id);
  }

  void StartCommTensor(int worker, int layer, std::function<void()> on_done) {
    if (config_.trace != nullptr) {
      const SimTime start = sim_->Now();
      const std::string track = "worker" + std::to_string(worker) + "/comm";
      const std::string name =
          config_.model.layers[layer].name +
          (config_.setup.arch == ArchType::kPs ? ".push+pull" : ".allreduce");
      on_done = [this, start, track, name, inner = std::move(on_done)] {
        config_.trace->AddSpan(track, name, start, sim_->Now());
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
    DagEngine& dag = *dag_engines_[worker];
    const bool barrier = HasGlobalBarrier(config_.setup.framework);
    const bool scheduled = config_.mode != SchedMode::kVanilla;
    const ModelProfile& model = config_.model;

    std::vector<OpId> prev_comm(num_layers_, kInvalidOp);       // in-engine comm ops
    std::vector<DependencyProxy*> prev_proxy(num_layers_, nullptr);  // barrier crossing
    OpId prev_barrier = kInvalidOp;

    for (int k = 0; k < total_iters_; ++k) {
      // Forward chain.
      std::vector<OpId> f(num_layers_);
      for (int i = 0; i < num_layers_; ++i) {
        const std::string name = "f" + std::to_string(k) + "_" + std::to_string(i);
        f[i] = dag.AddOp(name, ComputeOp(worker, model.layers[i].fp_time, name));
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
          if (prev_proxy[i] != nullptr) {
            OpId proxy_op = dag.AddOp("proxy_f" + std::to_string(k) + "_" + std::to_string(i),
                                      prev_proxy[i]->MakeOpFn());
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
        const std::string name = "b" + std::to_string(k) + "_" + std::to_string(i);
        // The last BP op (layer 0) marks the iteration's BP end.
        b[i] = dag.AddOp(name,
                         ComputeOp(worker, model.layers[i].bp_time, name, i == 0 ? k : -1));
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
      std::fill(prev_proxy.begin(), prev_proxy.end(), nullptr);
      for (int i = 0; i < num_layers_; ++i) {
        const std::string name = "comm" + std::to_string(k) + "_" + std::to_string(i);
        if (tf_vanilla_ps) {
          comm[i] = dag.AddOp(name, [this, worker, i](DagEngine::Done done) {
            StartPsPush(worker, i, std::move(done));
          });
        } else if (scheduled && barrier && !config_.disable_barrier_crossing) {
          // ByteScheduler on a barrier framework (Fig. 7): the engine op is
          // asynchronous — it hands the tensor to the Core and returns so the
          // barrier can pass; a Dependency Proxy blocks the next iteration's
          // forward op until notify_finish.
          auto proxy = std::make_unique<DependencyProxy>();
          DependencyProxy* proxy_ptr = proxy.get();
          proxies_.push_back(std::move(proxy));
          comm[i] = dag.AddOp(name, [this, worker, i, proxy_ptr](DagEngine::Done done) {
            StartCommTensor(worker, i, [proxy_ptr] { proxy_ptr->Release(); });
            done();  // returns immediately: communication runs out-of-engine
          });
          prev_proxy[i] = proxy_ptr;
        } else {
          // Vanilla, or ByteScheduler on a barrier-free framework (Fig. 6):
          // the engine op completes when the communication finishes.
          comm[i] = dag.AddOp(name, [this, worker, i](DagEngine::Done done) {
            StartCommTensor(worker, i, std::move(done));
          });
          prev_comm[i] = comm[i];
        }
        dag.AddDep(b[i], comm[i]);
      }

      if (barrier) {
        OpId barrier_op = dag.AddOp("barrier" + std::to_string(k), nullptr);
        for (int i = 0; i < num_layers_; ++i) {
          dag.AddDep(comm[i], barrier_op);
        }
        prev_barrier = barrier_op;
        if (tf_vanilla_ps) {
          // Step-start variable reads: issued after the barrier, each gating
          // its layer's forward op of the next iteration.
          for (int i = 0; i < num_layers_; ++i) {
            OpId pull_op = dag.AddOp(
                "read_var" + std::to_string(k) + "_" + std::to_string(i),
                [this, worker, i](DagEngine::Done done) {
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

  // Per-layer gate used by the PyTorch plugin's hooks: the forward pre-hook
  // of iteration k waits until the layer's communication of iteration k-1 has
  // finished. This is the imperative-engine embodiment of the Dependency
  // Proxy — the hook op holds its stream position until released.
  struct LayerGate {
    int finished = 0;
    int next_wait = 0;  // successive hook invocations = successive iterations
    std::vector<std::pair<int, DagEngine::Done>> waiters;

    void Arrive(DagEngine::Done done) {
      const int needed = next_wait++;
      if (finished >= needed) {
        done();
      } else {
        waiters.emplace_back(needed, std::move(done));
      }
    }

    void FinishOne() {
      ++finished;
      std::vector<DagEngine::Done> ready;
      std::erase_if(waiters, [&](auto& w) {
        if (w.first <= finished) {
          ready.push_back(std::move(w.second));
          return true;
        }
        return false;
      });
      for (auto& done : ready) {
        done();
      }
    }
  };

  void BuildImperativeWorker(int worker) {
    ImperativeEngine& eng = *imp_engines_[worker];
    const bool scheduled = config_.mode != SchedMode::kVanilla;
    const ModelProfile& model = config_.model;

    auto gates = std::make_shared<std::vector<LayerGate>>(num_layers_);
    if (scheduled) {
      for (int i = 0; i < num_layers_; ++i) {
        // register_forward_pre_hook: blocks this layer's forward compute
        // until its previous-iteration communication completed (Fig. 8).
        eng.RegisterForwardPreHook(i, [gates, i](DagEngine::Done done) {
          (*gates)[i].Arrive(std::move(done));
        });
        // register_hook on the gradient: hands the tensor to the Core the
        // moment BP produces it, then returns (communication runs
        // out-of-engine, crossing the step barrier).
        eng.RegisterBackwardHook(i, [this, gates, i, worker](DagEngine::Done done) {
          StartCommTensor(worker, i, [gates, i] { (*gates)[i].FinishOne(); });
          done();
        });
      }
    }

    for (int k = 0; k < total_iters_; ++k) {
      for (int i = 0; i < num_layers_; ++i) {
        const std::string name = "f" + std::to_string(k) + "_" + std::to_string(i);
        eng.PostForward(i, name, ComputeOp(worker, model.layers[i].fp_time, name));
      }
      std::vector<OpId> comm_ops;
      for (int i = num_layers_ - 1; i >= 0; --i) {
        const std::string name = "b" + std::to_string(k) + "_" + std::to_string(i);
        OpId b_op = eng.PostBackward(
            i, name, ComputeOp(worker, model.layers[i].bp_time, name, i == 0 ? k : -1));
        if (!scheduled) {
          // Vanilla Horovod: background all-reduce launched in gradient-ready
          // order; the optimizer step below waits for all of them.
          OpId comm = eng.PostBackground(
              "comm" + std::to_string(k) + "_" + std::to_string(i),
              [this, worker, i](DagEngine::Done done) {
                StartCommTensor(worker, i, std::move(done));
              });
          eng.After(b_op, comm);
          comm_ops.push_back(comm);
        }
      }
      // optimizer.step(): the inter-iteration global barrier of Fig. 3. With
      // ByteScheduler it no longer waits for communication (§3.4).
      OpId step = eng.Post("step" + std::to_string(k), nullptr);
      for (OpId comm : comm_ops) {
        eng.After(comm, step);
      }
    }
  }

  // ---- results -------------------------------------------------------------

  JobResult Collect() {
    JobResult result;
    result.sim_events = sim_->processed_events();
    for (const auto& core : cores_) {
      result.subtasks_started += core->subtasks_started();
    }
    result.iter_end_times = iter_bp_end_;
    if (faults_ != nullptr) {
      result.fault_stats = faults_->stats();
    }
    for (const auto& core : cores_) {
      result.subtasks_abandoned += core->subtasks_abandoned();
    }
    const SimTime start = iter_bp_end_[config_.warmup_iters - 1];
    const SimTime end = iter_bp_end_[total_iters_ - 1];
    const double span_sec = (end - start).ToSeconds();
    BSCHED_CHECK(span_sec > 0);
    result.avg_iter_time = SimTime::Seconds(span_sec / config_.measure_iters);
    const double samples_per_iter =
        static_cast<double>(config_.total_gpus()) * config_.model.batch_per_gpu;
    result.samples_per_sec = samples_per_iter / result.avg_iter_time.ToSeconds();
    if (ps_ != nullptr) {
      result.shard_load_imbalance = ps_->ShardLoadImbalance();
      result.rate_ctrl_decreases = ps_->rate_ctrl_decreases();
      result.rate_ctrl_increases = ps_->rate_ctrl_increases();
      result.link_repaces = ps_->link_repaces();
    }
    ExportMetrics(result);
    return result;
  }

  // End-of-run subsystem totals into the metrics registry (on top of the
  // hot-path histograms/counters recorded while the simulation ran).
  void ExportMetrics(const JobResult& result) {
    if (obs_ == nullptr || config_.metrics == nullptr) {
      return;
    }
    MetricsRegistry& reg = *config_.metrics;
    for (const auto& core : cores_) {
      core->ExportMetrics();
    }
    if (ps_ != nullptr) {
      ps_->ExportMetrics();
    }
    if (ar_ != nullptr) {
      ar_->ExportMetrics();
    }
    reg.gauge("sim.processed_events")->Set(static_cast<int64_t>(sim_->processed_events()));
    reg.gauge("sim.allocated_slots")->Set(static_cast<int64_t>(sim_->AllocatedSlots()));
    reg.gauge("sim.skipped_cancelled")->Set(static_cast<int64_t>(sim_->skipped_cancelled()));
    reg.gauge("sim.compactions")->Set(static_cast<int64_t>(sim_->compactions()));
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

  JobConfig config_;
  Shared shared_;
  int num_layers_ = 0;
  int total_iters_ = 0;
  int sim_workers_ = 0;

  Simulator owned_sim_;
  Simulator* sim_ = nullptr;
  // Observability sinks (flow bookkeeping + metrics handles); set only for
  // jobs owning their substrate, see the ctor.
  ObsContext obs_storage_;
  ObsContext* obs_ = nullptr;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<PsBackend> owned_ps_;
  PsBackend* ps_ = nullptr;
  std::unique_ptr<AllReduceBackend> ar_;
  CommBackend* backend_ = nullptr;
  std::vector<std::unique_ptr<SchedulerCore>> owned_cores_;
  std::vector<SchedulerCore*> cores_;
  std::vector<std::unique_ptr<Resource>> gpus_;
  std::vector<std::unique_ptr<DagEngine>> dag_engines_;
  std::vector<std::unique_ptr<ImperativeEngine>> imp_engines_;
  std::vector<std::unique_ptr<DependencyProxy>> proxies_;
  // BP-finish stamp per iteration: the slowest worker's.
  std::vector<SimTime> iter_bp_end_;
  // Latest pull CommTask per (worker, layer); targets of the aggregation
  // listener in synchronous PS mode.
  std::vector<std::vector<CommTaskId>> pull_task_ids_;
  // Aggregated-partition counters for tensor-level (vanilla) pull chaining.
  std::vector<std::vector<int>> agg_counts_;
  // Partition count of the current push task per (worker, layer).
  std::vector<std::vector<int>> push_parts_;
  // TF-vanilla: completion callbacks of in-engine send ops, fired when the
  // whole tensor is aggregated on its shard.
  std::vector<std::vector<std::function<void()>>> agg_done_cbs_;
};

}  // namespace

JobResult RunTrainingJob(const JobConfig& config) { return TrainingJob(config).Run(); }

std::vector<JobResult> RunCoscheduledPsJobs(const std::vector<JobConfig>& jobs,
                                            CoschedulePolicy policy) {
  BSCHED_CHECK(!jobs.empty());
  const JobConfig& first = jobs.front();
  for (const JobConfig& job : jobs) {
    BSCHED_CHECK(job.setup.arch == ArchType::kPs);
    BSCHED_CHECK(job.num_machines == first.num_machines);
    BSCHED_CHECK(job.bandwidth == first.bandwidth);
    BSCHED_CHECK(job.ps_async == first.ps_async);
    BSCHED_CHECK(!job.chaos.has_value() && "chaos mode is unsupported for co-scheduled jobs");
    BSCHED_CHECK((!job.dynamics.has_value() || !job.dynamics->enabled()) &&
                 "dynamic network is unsupported for co-scheduled jobs");
  }

  Simulator sim;
  PsConfig ps_config;
  ps_config.num_workers = first.num_machines;
  ps_config.num_shards = first.num_machines;
  ps_config.link_rate = first.bandwidth;
  ps_config.transport = first.setup.transport;
  ps_config.synchronous = !first.ps_async;
  PsBackend ps(&sim, ps_config);

  std::vector<std::unique_ptr<SchedulerCore>> shared_cores;
  std::vector<SchedulerCore*> shared_core_ptrs;
  if (policy == CoschedulePolicy::kCoordinated) {
    const SchedulerConfig sched = SchedulerConfigFor(first);
    for (int w = 0; w < first.num_machines; ++w) {
      shared_cores.push_back(std::make_unique<SchedulerCore>(sched, &ps, w));
      shared_core_ptrs.push_back(shared_cores.back().get());
    }
  }

  // Disjoint tensor-id ranges keep each job's aggregation slots and shard
  // assignment independent even on the shared backend.
  constexpr int64_t kTensorStride = 1 << 20;
  std::vector<std::unique_ptr<TrainingJob>> running;
  running.reserve(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    TrainingJob::Shared shared;
    shared.sim = &sim;
    shared.ps = &ps;
    shared.cores = shared_core_ptrs;
    shared.tensor_offset = static_cast<int64_t>(j) * kTensorStride;
    running.push_back(std::make_unique<TrainingJob>(jobs[j], shared));
    running.back()->Prepare();
  }
  sim.Run();
  std::vector<JobResult> results;
  results.reserve(jobs.size());
  for (auto& job : running) {
    results.push_back(job->Finish());
  }
  return results;
}

double LinearScalingSpeed(const ModelProfile& model, int total_gpus) {
  const double iter_sec = model.TotalComputeTime().ToSeconds();
  return total_gpus * model.batch_per_gpu / iter_sec;
}

double PaperLinearScaling(const JobConfig& config) {
  // The paper's reference is the one-machine *local* training speed (all
  // GPUs on one box, no cross-machine network) multiplied by the machine
  // count — which is compute-bound in this substrate for every model.
  return LinearScalingSpeed(config.model, config.total_gpus());
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
