// End-to-end distributed-training job simulation: builds the multi-iteration
// computation/communication DAG for every worker, wires the framework plugin
// (vanilla FIFO path, or ByteScheduler with Dependency Proxies and barrier
// crossing), runs it on the simulator, and reports steady-state training
// speed — the metric every figure in the paper plots.
//
// Observability: the job hands its trace and metrics pointers straight to
// each layer that writes them — the scheduler Cores, the PS or all-reduce
// backend (whose links take only the metrics), the fault injector (only the
// trace) and its own compute and per-tensor spans. Each pointer is nullable
// and each layer checks its own.
#ifndef SRC_RUNTIME_TRAINING_JOB_H_
#define SRC_RUNTIME_TRAINING_JOB_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/trace.h"
#include "src/common/units.h"
#include "src/core/comm_task.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/model/profile.h"
#include "src/net/net_dynamics.h"
#include "src/runtime/cluster.h"

namespace bsched {

class MetricsRegistry;
class TimeSeriesRecorder;

struct JobConfig {
  ModelProfile model;
  Setup setup;  // framework + architecture + transport
  SchedMode mode = SchedMode::kVanilla;

  int num_machines = 1;
  int gpus_per_machine = 8;
  Bandwidth bandwidth = Bandwidth::Gbps(100);

  // ByteScheduler knobs (ignored for kVanilla; kP3 uses its fixed values).
  Bytes partition_bytes = MiB(4);
  Bytes credit_bytes = MiB(16);

  // Full scheduler-config override (e.g. FIFO policy with partitioning for
  // the Figure 4 sweeps); when set, it replaces the mode-derived config while
  // keeping the ByteScheduler plugin wiring.
  std::optional<SchedulerConfig> sched_override;

  // §7 extension "dynamic partition size": per-layer partition sizes used by
  // ByteScheduler mode instead of the uniform `partition_bytes`. Empty =
  // uniform. When non-empty, must have one entry per model layer (0 entries
  // fall back to the uniform size).
  std::vector<Bytes> per_layer_partition;

  // Ablation: run ByteScheduler on a barrier framework without the §3.4
  // out-of-engine communication (the scheduler then stalls at the barrier).
  bool disable_barrier_crossing = false;

  // PS-only: asynchronous push/pull (no cross-worker aggregation wait).
  bool ps_async = false;

  // Deterministic fault injection ("chaos mode"): seeded episodes of message
  // drops, latency spikes, link-down windows, compute stragglers and shard
  // slowdowns, recovered by subtask timeout/retry in the Cores and push
  // retransmission in the PS backend. Unset (the default) leaves every fault
  // hook disarmed — the simulation is event-for-event identical to a build
  // without the fault fabric. Not supported for co-scheduled jobs.
  std::optional<FaultPlanConfig> chaos;

  // Dynamic-network fabric (PS architecture only): seeded random-walk
  // bandwidth drift, on/off cross traffic, asymmetric up/down rates, an
  // oversubscribed two-tier rack topology, and loss-driven AIMD rate control
  // fed by the push ack timers (src/net/net_dynamics.h). Unset or disabled
  // (the default config) leaves every link on its identity schedule at its
  // nominal rate, and registers no rate gauges or controllers — the
  // simulation is event-for-event identical to a run without the field.
  // Schedules derive from (seed, link name). Not supported for co-scheduled
  // jobs.
  std::optional<NetDynamicsConfig> dynamics;

  // PS jobs: each worker's aggregation notification arrives control_latency
  // after the update, as its own event, instead of as a synchronous call
  // (the PS backend's delayed_notify; the push-ack cancel is synchronous
  // either way). Speeds stay within a few percent of the default;
  // fig15_volatility sets it because its recorded rows were produced this
  // way. Co-scheduled jobs must agree on it.
  bool delayed_notify = false;

  int warmup_iters = 2;
  int measure_iters = 6;

  // Optional execution-trace sink (compute ops and per-tensor communication
  // spans, plus scheduler/link/shard detail spans and partition flow arcs
  // when set); must outlive RunTrainingJob. Null disables tracing.
  TraceRecorder* trace = nullptr;

  // Optional metrics sink (scheduler queue depth / credit occupancy
  // histograms, link byte/queueing metrics, end-of-run subsystem totals);
  // must outlive RunTrainingJob. Null disables metrics. Give each job its
  // own registry when comparing runs — names are not namespaced per job.
  // Must be null (like `trace` and `timeseries`) for co-scheduled jobs.
  MetricsRegistry* metrics = nullptr;

  // Optional sim-time sampling sink (src/obs/timeseries.h): one scope per
  // worker samples that worker's scheduler, NIC-link and GPU signals on the
  // recorder's cadence, driven by ordinary simulator timer events. Requires
  // `metrics` (the recorder reads the same registry handles the subsystems
  // write) and a job run alone; must be un-started and outlive
  // RunTrainingJob. Null disables sampling with zero cost (bit-identical
  // simulation); an enabled recorder adds tick events but never perturbs
  // iteration timing.
  TimeSeriesRecorder* timeseries = nullptr;

  int total_gpus() const { return num_machines * gpus_per_machine; }
};

struct JobResult {
  double samples_per_sec = 0.0;
  SimTime avg_iter_time;
  // Max-over-mean PS shard egress load (1.0 == balanced; PS jobs only).
  double shard_load_imbalance = 1.0;
  uint64_t sim_events = 0;
  // SubCommTasks admitted across all Cores (communication ops on the wire).
  uint64_t subtasks_started = 0;
  // Per-iteration BP-finish timestamps (diagnostics / convergence checks).
  std::vector<SimTime> iter_end_times;
  // Injection and recovery counters (all zero unless JobConfig::chaos set).
  FaultStats fault_stats;
  // SubCommTask attempts the Cores abandoned after exhausting retries; always
  // 0 for a job that ran to completion, since an exhausted budget aborts.
  uint64_t subtasks_abandoned = 0;
  // Dynamic-network activity (all zero unless JobConfig::dynamics enabled):
  // AIMD backoffs/recoveries and in-flight transfers re-paced mid-message.
  uint64_t rate_ctrl_decreases = 0;
  uint64_t rate_ctrl_increases = 0;
  uint64_t link_repaces = 0;
  // In-flight high-water marks: the most records each structure held at
  // once, summed over its instances (each instance's own peak). Deterministic
  // work counts, so a change to what a job keeps in flight shows up as a
  // diff. Co-scheduled jobs report the shared fabric's hops, link entries
  // and events, and the Cores they ran on.
  struct Peaks {
    uint64_t core_records = 0;  // SchedulerCore records, over the job's Cores
    uint64_t ps_hops = 0;       // PsBackend hops (0 for all-reduce)
    uint64_t link_entries = 0;  // queued link entries, over every PS link
    uint64_t sim_events = 0;    // pending simulator events

    bool operator==(const Peaks&) const = default;
  };
  Peaks peaks;
};

// Runs the configured job to completion and reports steady-state speed
// (samples/sec over the measured iterations, after warm-up).
JobResult RunTrainingJob(const JobConfig& config);

// Ideal compute-bound speed: single-device compute-only throughput times the
// device count. An absolute upper bound for any schedule, and the paper's
// "linear scaling" bar (§6.1): the one-machine local training speed (no
// cross-machine network) times the machine count is compute-bound in this
// substrate for every model.
double LinearScalingSpeed(const ModelProfile& model, int total_gpus);

// Heuristic tuned (partition, credit) defaults per architecture/transport/
// bandwidth, matching the trends of the paper's Table 1 (PS wants MB-scale
// partitions with ~5x credit; all-reduce wants tens-of-MB partitions).
// The benchmark harness can replace these with real auto-tuner output.
struct TunedParams {
  Bytes partition_bytes;
  Bytes credit_bytes;
};

// §7 extension "co-scheduling in a shared cluster": several PS training jobs
// run concurrently on the same machines, sharing worker NICs and PS shards.
enum class CoschedulePolicy {
  // Each job runs its own scheduler Cores; jobs contend blindly in the
  // shared fabric's FIFO queues (the status quo the paper warns about).
  kIndependent,
  // One shared Core per worker schedules all jobs' tensors together by
  // layer priority — the cooperative scheduling §7 suggests.
  kCoordinated,
};

// Runs the jobs to completion on one shared cluster and reports per-job
// results. The cluster is built from the first job, exactly as
// RunTrainingJob builds a job's own, so all jobs must be PS-architecture with
// the same machine count, bandwidth, transport, ps_async and delayed_notify,
// and none may set chaos, dynamics, trace, metrics or timeseries (each is a
// CHECK failure). The shared Cores (coordinated policy) take their scheduler
// knobs from the first job.
std::vector<JobResult> RunCoscheduledPsJobs(const std::vector<JobConfig>& jobs,
                                            CoschedulePolicy policy);
TunedParams DefaultTunedParams(const ModelProfile& model, ArchType arch,
                               const TransportModel& transport, Bandwidth bandwidth);

}  // namespace bsched

#endif  // SRC_RUNTIME_TRAINING_JOB_H_
