// perfbench_driver: the in-process workloads of the repository benchmark.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --reference FILE [--spans FILE]
//   perfbench_driver --record FILE   write the reference fingerprints
//   perfbench_driver --stamp         print the build stamp
//
// W is ps_lattice or ring_lattice (NOTES.md says why each exists, and why
// the observed job is not timed on its own but runs in ps_lattice's traced
// run). The seed only permutes the order of operations: every run does
// the same set of jobs, so every job is checked against its recorded
// fingerprint. Human-readable lines come first; the last stdout line is
// {"attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}.
// Exit 3 refuses a build that is not an optimised, sanitizer-free build.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/layers.h"
#include "src/common/trace.h"
#include "src/model/zoo.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/runtime/training_job.h"
#include "src/tuning/auto_tuner.h"

namespace perfbench {
namespace {

using bsched::Bytes;
using bsched::JobConfig;
using bsched::JobResult;
using Clock = std::chrono::steady_clock;

constexpr int kLattice = 8;     // Fig. 14's 8x8 (partition, credit) lattice
constexpr int kFitReps = 7;     // timings per point of the runtime fit
constexpr int kFitLongIters = 9;
constexpr int kObservedReps = 5;  // observed job and its sink-free twin
constexpr double kCpuProbeSeconds = 0.05;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Linear interpolation between closest ranks; q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Repeated timings of deterministic work differ only by host interference;
// the fastest repetition is the estimate of the work's own cost.
double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// Six independent multiply-add chains: a loop that needs the core's
// execution ports, so it slows down when another tenant shares the
// physical core. (A single dependent chain does not: it read the same
// 29.8 us on every CPU while the same job ran 1.5x slower on one of them.)
double ProbeSeconds() {
  const Clock::time_point start = Clock::now();
  uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  for (int i = 0; i < 50000; ++i) {
    a = a * 3 + b;
    b = b * 5 + c;
    c = c * 7 + d;
    d = d * 9 + e;
    e = e * 11 + f;
    f = f * 13 + a;
  }
  volatile uint64_t sink = a + b + c + d + e + f;
  static_cast<void>(sink);
  return Since(start);
}

// A shared host runs its CPUs at different speeds at the same moment (one
// job ran up to 1.6x slower on one CPU than on another), and which are slow
// changes from second to second. Runs the probe twice on each allowed CPU
// and stays on the one that ran it fastest.
void PinToFastestCpu(const std::vector<int>& cpus) {
  int best_cpu = -1;
  double best = 0.0;
  for (const int cpu : cpus) {
    PinTo(cpu);
    const double seconds = std::min(ProbeSeconds(), ProbeSeconds());
    if (best_cpu < 0 || seconds < best) {
      best_cpu = cpu;
      best = seconds;
    }
  }
  if (best_cpu >= 0) {
    PinTo(best_cpu);
  }
}

// ---- build stamp ---------------------------------------------------------

bool Timeable() {
#ifndef NDEBUG
  return false;
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  return (type == "Release" || type == "RelWithDebInfo") && (sanitize.empty() || sanitize == "OFF");
#endif
}

std::string StampJson() {
  std::ostringstream os;
  os << "{\"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"sanitize\": \""
     << PERFBENCH_SANITIZE << "\", \"compiler\": \"" << __VERSION__
     << "\", \"nproc\": " << std::thread::hardware_concurrency() << "}";
  return os.str();
}

// ---- spans ---------------------------------------------------------------

// In-memory span log of the traced run: one span per call the benchmark makes
// into a layer's public function. Written out as Chrome trace events when
// the run ends; disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int Begin(std::string name, int parent) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({std::move(name), parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    if (id >= 0) {
      spans_[id].end = Clock::now();
    }
  }

  void WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
      };
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << us(s.start)
          << ", \"dur\": " << us(s.end) - us(s.start) << ", \"args\": {\"id\": " << i
          << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent)
      : log_(log), id_(log.Begin(std::move(name), parent)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---- workloads -----------------------------------------------------------

struct Op {
  std::string key;  // fingerprint key, unique within the workload
  JobConfig job;
  // Lattice ops: the job is the one AutoTuner::EvaluateConfigured runs for
  // (partition, credit) on `tuner`; the traced run checks that it is.
  const bsched::AutoTuner* tuner = nullptr;
  Bytes partition = 0;
  Bytes credit = 0;
};

struct Workload {
  std::string name;
  bool observed = false;  // ps_observed: sinks attached, artifacts serialised
  std::vector<std::unique_ptr<bsched::AutoTuner>> tuners;
  std::vector<Op> ops;  // one pass
  std::map<std::string, std::string> reference;  // key -> fingerprint
};

std::string KeySafe(std::string s) {
  std::replace(s.begin(), s.end(), ' ', '_');
  return s;
}

// One pane of Fig. 14: the 8x8 lattice over AutoTuner's default ranges,
// noise-free, on 4 machines x 8 GPUs at 100 Gbps.
void AddLattice(Workload& w, const bsched::ModelProfile& model, const bsched::Setup& setup) {
  JobConfig base;
  base.model = model;
  base.setup = setup;
  base.num_machines = 4;
  base.gpus_per_machine = 8;
  base.bandwidth = bsched::Bandwidth::Gbps(100);
  bsched::AutoTunerOptions options;
  options.noise_frac = 0.0;
  w.tuners.push_back(std::make_unique<bsched::AutoTuner>(base, options));
  const bsched::AutoTuner* tuner = w.tuners.back().get();
  // The profiling job EvaluateConfigured builds from `base`.
  base.mode = bsched::SchedMode::kByteScheduler;
  base.warmup_iters = options.profile_warmup;
  base.measure_iters = options.profile_iters;
  for (int i = 0; i < kLattice; ++i) {
    for (int j = 0; j < kLattice; ++j) {
      Op op;
      op.key = KeySafe(model.name) + ":" + std::to_string(i) + "," + std::to_string(j);
      op.tuner = tuner;
      op.partition = tuner->PartitionFromUnit(static_cast<double>(i) / (kLattice - 1));
      op.credit = tuner->CreditFromUnit(static_cast<double>(j) / (kLattice - 1));
      op.job = base;
      op.job.partition_bytes = op.partition;
      op.job.credit_bytes = std::max(op.credit, op.partition);
      w.ops.push_back(std::move(op));
    }
  }
}

// VGG16 on MXNet PS TCP at 10 Gbps with ByteScheduler's tuned defaults, under
// FaultPlanConfig::Chaos(7) and AIMD-only dynamics. Cross traffic is left out
// on purpose: with it the job aborts (NOTES.md, "Known abort").
Op ObservedOp() {
  Op op;
  op.key = "vgg16_ps_tcp_chaos7";
  JobConfig& job = op.job;
  job.model = bsched::Vgg16();
  job.setup = bsched::Setup::MxnetPsTcp();
  job.num_machines = 4;
  job.gpus_per_machine = 8;
  job.bandwidth = bsched::Bandwidth::Gbps(10);
  job.mode = bsched::SchedMode::kByteScheduler;
  const bsched::TunedParams tuned = bsched::DefaultTunedParams(
      job.model, job.setup.arch, job.setup.transport, job.bandwidth);
  job.partition_bytes = tuned.partition_bytes;
  job.credit_bytes = tuned.credit_bytes;
  job.warmup_iters = 1;
  job.measure_iters = 3;
  job.chaos = bsched::FaultPlanConfig::Chaos(7);
  bsched::NetDynamicsConfig dynamics;
  dynamics.aimd.enable = true;
  job.dynamics = dynamics;
  return op;
}

// The timed workloads.
const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ps_lattice", "ring_lattice"};
  return names;
}

// The observed job's reference group. It is not a timed workload: its time
// moves with the host far more than the lattices' (NOTES.md), so it runs
// only in ps_lattice's traced run, for the src/obs and src/fault metrics.
constexpr char kObserved[] = "ps_observed";

// Reference file lines: "<workload> <key> <fingerprint...>".
std::map<std::string, std::string> LoadReference(const std::string& path,
                                                 const std::string& workload) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::string key;
    fields >> name >> key;
    std::string rest;
    std::getline(fields >> std::ws, rest);
    if (name == workload) {
      out[key] = rest;
    }
  }
  return out;
}

// The set-up a user of the workload pays before the first job: model
// profiles, JobConfigs, AutoTuner construction and the reference fingerprints.
Workload MakeWorkload(const std::string& name, const std::string& reference_path) {
  Workload w;
  w.name = name;
  if (name == "ps_lattice") {
    AddLattice(w, bsched::Vgg16(), bsched::Setup::MxnetPsRdma());
  } else if (name == "ring_lattice") {
    AddLattice(w, bsched::Vgg16(), bsched::Setup::MxnetNcclRdma());
    AddLattice(w, bsched::ResNet50(), bsched::Setup::MxnetNcclRdma());
    AddLattice(w, bsched::Transformer(), bsched::Setup::MxnetNcclRdma());
  } else {
    w.observed = true;
    w.ops.push_back(ObservedOp());
  }
  if (!reference_path.empty()) {
    w.reference = LoadReference(reference_path, name);
  }
  return w;
}

// ---- layer drivers -------------------------------------------------------

struct LayerDriver {
  const char* name;
  const char* metric;
  LayerResult (*run)();
};

constexpr LayerDriver kLayerDrivers[] = {
    {"sim.churn", "sim.churn_ns_per_event", SimChurn},
    {"core.admit", "core.admit_ns_per_subtask", CoreAdmit},
    {"net.send", "net.send_ns_per_msg", NetSend},
};

std::string LayerFingerprint(const LayerResult& r) {
  return std::to_string(r.units) + ":" + std::to_string(r.checksum);
}

// ---- one operation -------------------------------------------------------

struct Outcome {
  bool ok = false;
  double seconds = 0.0;      // the whole operation
  double cpu_seconds = 0.0;  // process CPU of the whole operation
  double job_seconds = 0.0;  // RunTrainingJob alone
  double export_seconds = 0.0;
  size_t artifact_bytes = 0;
  size_t trace_events = 0;
  JobResult result;
  std::string fingerprint;
  bsched::MetricsSnapshot counts;  // filled when counts were requested
};

// The exact bits of a speed, so a fingerprint catches any change.
std::string SpeedField(double samples_per_sec) {
  uint64_t bits = 0;
  std::memcpy(&bits, &samples_per_sec, sizeof(bits));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sps=%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

std::string Fingerprint(const JobResult& r) {
  const bsched::FaultStats& f = r.fault_stats;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s iter_ns=%lld events=%llu subtasks=%llu drops=%llu delays=%llu "
                "timeouts=%llu retries=%llu late=%llu abandoned=%llu retx=%llu rc_dec=%llu "
                "rc_inc=%llu repaces=%llu",
                SpeedField(r.samples_per_sec).c_str(),
                static_cast<long long>(r.avg_iter_time.nanos()),
                static_cast<unsigned long long>(r.sim_events),
                static_cast<unsigned long long>(r.subtasks_started),
                static_cast<unsigned long long>(f.drops_injected),
                static_cast<unsigned long long>(f.delays_injected),
                static_cast<unsigned long long>(f.core_timeouts),
                static_cast<unsigned long long>(f.core_retries),
                static_cast<unsigned long long>(f.core_late_completions),
                static_cast<unsigned long long>(r.subtasks_abandoned),
                static_cast<unsigned long long>(f.backend_retransmits),
                static_cast<unsigned long long>(r.rate_ctrl_decreases),
                static_cast<unsigned long long>(r.rate_ctrl_increases),
                static_cast<unsigned long long>(r.link_repaces));
  return buf;
}

// Runs one job. Observed ops attach TraceRecorder, MetricsRegistry and a
// 100 us TimeSeriesRecorder and serialise all three artifacts to memory, in
// an order drawn from `rng`. With `want_counts`, lattice ops attach a
// MetricsRegistry (observed ops already have one) and return its snapshot.
Outcome RunOp(const Workload& w, const Op& op, SpanLog& spans, int parent, std::mt19937_64& rng,
              bool want_counts) {
  Outcome out;
  ScopedSpan op_span(spans, w.observed ? "observed_job" : "job", parent);
  const Clock::time_point start = Clock::now();
  const double cpu_start = CpuSeconds();
  try {
    JobConfig job = op.job;
    bsched::TraceRecorder trace;
    bsched::MetricsRegistry metrics;
    bsched::TimeSeriesRecorder timeseries(&metrics, bsched::SimTime::Micros(100));
    if (w.observed) {
      job.trace = &trace;
      job.metrics = &metrics;
      job.timeseries = &timeseries;
    } else if (want_counts) {
      job.metrics = &metrics;
    }
    {
      ScopedSpan span(spans, "RunTrainingJob", op_span.id());
      const Clock::time_point job_start = Clock::now();
      out.result = RunTrainingJob(job);
      out.job_seconds = Since(job_start);
    }
    out.fingerprint = Fingerprint(out.result);
    if (w.observed) {
      int order[3] = {0, 1, 2};
      std::shuffle(order, order + 3, rng);
      const Clock::time_point export_start = Clock::now();
      for (const int writer : order) {
        std::ostringstream artifact;
        if (writer == 0) {
          ScopedSpan span(spans, "WriteChromeTrace", op_span.id());
          trace.WriteChromeTrace(artifact);
        } else if (writer == 1) {
          ScopedSpan span(spans, "MetricsSnapshot::WriteJson", op_span.id());
          metrics.Snapshot().WriteJson(artifact);
        } else {
          ScopedSpan span(spans, "TimeSeriesRecorder::WriteCsv", op_span.id());
          timeseries.WriteCsv(artifact);
        }
        out.artifact_bytes += static_cast<size_t>(artifact.tellp());
      }
      out.export_seconds = Since(export_start);
      out.trace_events = trace.num_events();
      out.fingerprint += " trace_events=" + std::to_string(out.trace_events) +
                         " artifact_bytes=" + std::to_string(out.artifact_bytes);
    }
    if (want_counts) {
      out.counts = metrics.Snapshot();
    }
    out.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s %s threw: %s\n", w.name.c_str(), op.key.c_str(),
                 e.what());
  }
  out.seconds = Since(start);
  out.cpu_seconds = CpuSeconds() - cpu_start;
  return out;
}

// ---- metrics output ------------------------------------------------------

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  std::string Json() const {
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", items_[i].value);
      os << (i == 0 ? "" : ", ") << "\"" << items_[i].name << "\": {\"value\": " << value
         << ", \"unit\": \"" << items_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

uint64_t SumMatching(const bsched::MetricsSnapshot& s, const std::string& prefix,
                     const std::string& suffix) {
  uint64_t total = 0;
  const auto matches = [&](const std::string& name) {
    return name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
           name.ends_with(suffix);
  };
  for (const auto& [name, value] : s.counters) {
    total += matches(name) ? value : 0;
  }
  for (const auto& [name, value] : s.gauges) {
    total += matches(name) ? static_cast<uint64_t>(value) : 0;
  }
  return total;
}

// ---- the run -------------------------------------------------------------

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string spans;
};

class Runner {
 public:
  explicit Runner(const RunArgs& args) : args_(args), spans_(args.trace), rng_(args.seed) {}

  int Run() {
    w_ = TimedSetup();
    if (w_.reference.size() != w_.ops.size()) {
      std::fprintf(stderr, "perfbench: reference %s has %zu fingerprints for %s, want %zu\n",
                   args_.reference.c_str(), w_.reference.size(), w_.name.c_str(), w_.ops.size());
      return 2;
    }
    const int run_span = spans_.Begin("run " + w_.name, -1);
    RunPasses(run_span);
    MetricSet metrics;
    if (args_.trace) {
      LayerMetrics(metrics, run_span);
    } else {
      EndToEndMetrics(metrics);
    }
    spans_.End(run_span);
    if (!args_.spans.empty()) {
      spans_.WriteChromeTrace(args_.spans);
    }
    std::printf("%s: %zu jobs per pass, %zu passes, %llu events and %llu subtasks per pass\n",
                w_.name.c_str(), w_.ops.size(), passes_,
                static_cast<unsigned long long>(pass_events_),
                static_cast<unsigned long long>(pass_subtasks_));
    std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), metrics.Json().c_str());
    return 0;
  }

 private:
  // Per distinct job: its repetitions' wall, CPU and RunTrainingJob seconds.
  struct Samples {
    std::vector<double> wall, cpu, run;
  };

  // Builds the workload, timing it. The first build is the set-up that
  // precedes the first job; the untraced run repeats it between jobs across
  // the whole run, because a fraction of a millisecond timed in one burst
  // mostly measures what the host is doing at that moment.
  Workload TimedSetup() {
    const Clock::time_point start = Clock::now();
    Workload w = MakeWorkload(args_.workload, args_.reference);
    setup_s_.push_back(Since(start));
    return w;
  }

  // Checks one outcome of `w` against its reference fingerprint; counts it.
  void Check(const Workload& w, const Op& op, const Outcome& out) {
    ++attempted_;
    const auto it = w.reference.find(op.key);
    const bool ok = out.ok && it != w.reference.end() && it->second == out.fingerprint;
    if (!ok) {
      ++failed_;
      if (failed_ <= 3) {
        std::fprintf(stderr, "perfbench: %s %s fingerprint mismatch\n  got  %s\n  want %s\n",
                     w.name.c_str(), op.key.c_str(), out.fingerprint.c_str(),
                     it == w.reference.end() ? "(none)" : it->second.c_str());
      }
    }
  }

  // Whole passes in seeded order until the next pass would overrun the run
  // length. In the traced run passes alternate traced / untraced (at least
  // one of each), so the gap between them is the spans' own overhead.
  void RunPasses(int run_span) {
    const Clock::time_point run_start = Clock::now();
    SpanLog untraced(false);
    std::vector<const Op*> order;
    for (const Op& op : w_.ops) {
      order.push_back(&op);
    }
    // About 16 set-up repetitions per pass, spread over it.
    const size_t setup_every = std::max<size_t>(1, w_.ops.size() / 16);
    const size_t min_passes = args_.trace ? 2 : 1;
    // Every job runs on the CPU that is fastest at the time, re-chosen
    // every kCpuProbeSeconds.
    const std::vector<int> cpus = AllowedCpus();
    PinToFastestCpu(cpus);
    Clock::time_point probed = Clock::now();
    while (true) {
      const bool traced = args_.trace && passes_ % 2 == 0;
      SpanLog& log = traced ? spans_ : untraced;
      std::shuffle(order.begin(), order.end(), rng_);
      const Clock::time_point start = Clock::now();
      const double cpu_start = CpuSeconds();
      uint64_t events = 0;
      uint64_t subtasks = 0;
      {
        ScopedSpan pass(log, "pass", run_span);
        for (size_t i = 0; i < order.size(); ++i) {
          const Op* op = order[i];
          if (Since(probed) > kCpuProbeSeconds) {
            PinToFastestCpu(cpus);
            probed = Clock::now();
          }
          const Outcome out = RunOp(w_, *op, log, pass.id(), rng_, false);
          Check(w_, *op, out);
          Samples& samples = samples_[traced][op];
          samples.wall.push_back(out.seconds);
          samples.cpu.push_back(out.cpu_seconds);
          samples.run.push_back(out.job_seconds);
          events += out.result.sim_events;
          subtasks += out.result.subtasks_started;
          if (!args_.trace && i % setup_every == 0) {
            TimedSetup();
          }
        }
      }
      ++passes_;
      pass_wall_s_ += Since(start);
      pass_cpu_s_ += CpuSeconds() - cpu_start;
      pass_events_ = events;
      pass_subtasks_ = subtasks;
      if (passes_ >= min_passes && Since(run_start) * (passes_ + 1) / passes_ > args_.seconds) {
        break;
      }
    }
  }

  // Jobs are deterministic, so a job's time is its fastest repetition (see
  // Fastest). Quantile over the distinct jobs of `field`, in seconds.
  double JobQuantile(bool traced, std::vector<double> Samples::*field, double q) const {
    std::vector<double> best;
    for (const auto& [op, samples] : samples_[traced]) {
      best.push_back(Fastest(samples.*field));
    }
    return Quantile(best, q);
  }

  // One pass with every job at its fastest repetition.
  double PassSeconds(bool traced, std::vector<double> Samples::*field) const {
    double total = 0.0;
    for (const auto& [op, samples] : samples_[traced]) {
      total += Fastest(samples.*field);
    }
    return total;
  }

  void EndToEndMetrics(MetricSet& m) {
    const double pass_wall = PassSeconds(false, &Samples::wall);
    m.Add("eval_wall_s", pass_wall, "s");
    m.Add("eval_cpu_s", PassSeconds(false, &Samples::cpu), "s");
    m.Add("jobs_per_s", static_cast<double>(w_.ops.size()) / pass_wall, "1/s");
    m.Add("job_ms_p50", JobQuantile(false, &Samples::wall, 0.5) * 1e3, "ms");
    m.Add("job_ms_p90", JobQuantile(false, &Samples::wall, 0.9) * 1e3, "ms");
    m.Add("events_per_s", static_cast<double>(pass_events_) / pass_wall, "1/s");
    m.Add("setup_s", Median(setup_s_), "s");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    m.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB");
    std::printf("samples: %zu distinct jobs, each timed %zu times; %zu set-ups\n",
                w_.ops.size(), passes_, setup_s_.size());
  }

  void LayerMetrics(MetricSet& m, int run_span) {
    // Deterministic counts: one pass with a MetricsRegistry on every job,
    // checked like any other pass.
    std::vector<Outcome> counted;
    {
      ScopedSpan span(spans_, "counts pass", run_span);
      for (const Op& op : w_.ops) {
        counted.push_back(RunOp(w_, op, spans_, span.id(), rng_, true));
        Check(w_, op, counted.back());
      }
    }
    double iters = 0;
    uint64_t events = 0, subtasks = 0, slots = 0, skipped = 0, preemptions = 0, ring_ops = 0;
    for (size_t i = 0; i < counted.size(); ++i) {
      const Outcome& out = counted[i];
      iters += w_.ops[i].job.warmup_iters + w_.ops[i].job.measure_iters;
      events += out.result.sim_events;
      subtasks += out.result.subtasks_started;
      slots = std::max(slots, SumMatching(out.counts, "sim.allocated_slots", ""));
      skipped += SumMatching(out.counts, "sim.skipped_cancelled", "");
      preemptions += SumMatching(out.counts, "sched.w", ".preemptions");
      ring_ops += SumMatching(out.counts, "ring.ops", "");
    }
    if (w_.name == "ps_lattice") {
      // The slot pool and cancelled-timer counts cover the observed job too:
      // only its retry timers cancel.
      const Outcome observed = ObservedMetrics(m, run_span);
      slots = std::max(slots, SumMatching(observed.counts, "sim.allocated_slots", ""));
      skipped += SumMatching(observed.counts, "sim.skipped_cancelled", "");
    }
    const double per_iter = iters > 0 ? 1.0 / iters : 0.0;
    m.Add("sim.events_per_iter", static_cast<double>(events) * per_iter, "count");
    m.Add("sim.host_ns_per_event",
          PassSeconds(true, &Samples::run) * 1e9 / static_cast<double>(pass_events_), "ns");
    m.Add("sim.allocated_slots", static_cast<double>(slots), "count");
    m.Add("sim.skipped_cancelled", static_cast<double>(skipped), "count");
    m.Add("core.subtasks_per_iter", static_cast<double>(subtasks) * per_iter, "count");
    m.Add("core.preemptions_per_iter", static_cast<double>(preemptions) * per_iter, "count");
    m.Add("comm.ring_ops_per_iter", static_cast<double>(ring_ops) * per_iter, "count");
    m.Add("exec.cores_busy", pass_cpu_s_ / pass_wall_s_, "x");
    m.Add("perfbench.trace_overhead_x",
          JobQuantile(true, &Samples::wall, 0.5) / JobQuantile(false, &Samples::wall, 0.5), "x");

    CheckEvaluateConfigured(run_span);
    RuntimeFit(m, run_span);
    LayerDrivers(m, run_span);
  }

  // The observed job, alternating with its sink-free twin, kObservedReps
  // times each: the fault, retry and re-pacing counts and the sinks' cost.
  // Returns the last repetition.
  Outcome ObservedMetrics(MetricSet& m, int run_span) {
    const Workload obs = MakeWorkload(kObserved, args_.reference);
    const Op& op = obs.ops.front();
    std::vector<double> with_sinks_s, bare_s, export_s;
    Outcome out;
    for (int r = 0; r < kObservedReps; ++r) {
      out = RunOp(obs, op, spans_, run_span, rng_, true);
      Check(obs, op, out);
      with_sinks_s.push_back(out.seconds);
      export_s.push_back(out.export_seconds);
      ScopedSpan span(spans_, "RunTrainingJob (no sinks)", run_span);
      const Clock::time_point start = Clock::now();
      RunTrainingJob(op.job);
      bare_s.push_back(Since(start));
    }
    const bsched::FaultStats& f = out.result.fault_stats;
    m.Add("core.retries", static_cast<double>(f.core_retries), "count");
    m.Add("net.link_repaces", static_cast<double>(out.result.link_repaces), "count");
    m.Add("comm.ps_push_retransmits",
          static_cast<double>(SumMatching(out.counts, "ps.push_retransmits", "")), "count");
    m.Add("fault.drops_injected", static_cast<double>(f.drops_injected), "count");
    m.Add("fault.core_timeouts", static_cast<double>(f.core_timeouts), "count");
    m.Add("obs.sink_overhead_x", Fastest(with_sinks_s) / Fastest(bare_s), "x");
    m.Add("obs.export_ms", Fastest(export_s) * 1e3, "ms");
    m.Add("obs.artifact_mb", static_cast<double>(out.artifact_bytes) / 1e6, "MB");
    m.Add("obs.trace_events", static_cast<double>(out.trace_events), "count");
    return out;
  }

  // One lattice point through AutoTuner::EvaluateConfigured itself: its speed
  // must equal the fingerprinted speed of the job the workload times.
  void CheckEvaluateConfigured(int run_span) {
    std::uniform_int_distribution<size_t> pick(0, w_.ops.size() - 1);
    const Op& op = w_.ops[pick(rng_)];
    double speed = 0.0;
    {
      ScopedSpan span(spans_, "AutoTuner::EvaluateConfigured", run_span);
      speed = op.tuner->EvaluateConfigured(op.partition, op.credit);
    }
    const std::string want = w_.reference.count(op.key) ? w_.reference.at(op.key) : "";
    ++attempted_;
    if (!want.starts_with(SpeedField(speed) + " ")) {
      ++failed_;
      std::fprintf(stderr, "perfbench: EvaluateConfigured(%s) disagrees with the timed job\n",
                   op.key.c_str());
    }
  }

  // Host time of the workload's mid-lattice job at two measured-iteration
  // counts; the line through them splits per-job wiring from per-iteration
  // simulation.
  void RuntimeFit(MetricSet& m, int run_span) {
    const Op& op = w_.ops[(kLattice / 2) * kLattice + kLattice / 2];
    const auto time_at = [&](int measure_iters) {
      JobConfig job = op.job;
      job.measure_iters = measure_iters;
      std::vector<double> ms;
      for (int r = 0; r < kFitReps; ++r) {
        ScopedSpan span(spans_, "RunTrainingJob (fit)", run_span);
        const Clock::time_point start = Clock::now();
        RunTrainingJob(job);
        ms.push_back(Since(start) * 1e3);
      }
      return std::make_pair(Fastest(ms), static_cast<double>(job.warmup_iters + measure_iters));
    };
    const auto [short_ms, short_iters] = time_at(op.job.measure_iters);
    const auto [long_ms, long_iters] = time_at(kFitLongIters);
    const double ms_per_iter = (long_ms - short_ms) / (long_iters - short_iters);
    m.Add("runtime.fixed_ms_per_job", short_ms - ms_per_iter * short_iters, "ms");
    m.Add("runtime.ms_per_iter", ms_per_iter, "ms");
  }

  void LayerDrivers(MetricSet& m, int run_span) {
    const std::map<std::string, std::string> want = LoadReference(args_.reference, "layers");
    for (const LayerDriver& d : kLayerDrivers) {
      LayerResult result;
      {
        ScopedSpan span(spans_, d.name, run_span);
        result = d.run();
      }
      ++attempted_;
      const std::string got = LayerFingerprint(result);
      if (!want.count(d.name) || want.at(d.name) != got) {
        ++failed_;
        std::fprintf(stderr, "perfbench: layer driver %s checksum %s, want %s\n", d.name,
                     got.c_str(), want.count(d.name) ? want.at(d.name).c_str() : "(none)");
      }
      m.Add(d.metric, result.ns_per_unit, "ns");
    }
  }

  const RunArgs& args_;
  SpanLog spans_;
  std::mt19937_64 rng_;
  Workload w_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<double> setup_s_;
  std::map<const Op*, Samples> samples_[2];  // untraced [0], traced [1] passes
  size_t passes_ = 0;
  double pass_wall_s_ = 0.0, pass_cpu_s_ = 0.0;
  uint64_t pass_events_ = 0, pass_subtasks_ = 0;
};

// Writes the fingerprint of every job of every workload and of the observed
// job (one pass in natural order) and the layer drivers' checksums.
int Record(const std::string& path) {
  std::ofstream out(path);
  SpanLog none(false);
  std::mt19937_64 rng(1);
  std::vector<std::string> names = WorkloadNames();
  names.push_back(kObserved);
  for (const std::string& name : names) {
    const Workload w = MakeWorkload(name, "");
    uint64_t events = 0, subtasks = 0;
    for (const Op& op : w.ops) {
      const Outcome o = RunOp(w, op, none, -1, rng, false);
      if (!o.ok) {
        return 1;
      }
      out << name << " " << op.key << " " << o.fingerprint << "\n";
      events += o.result.sim_events;
      subtasks += o.result.subtasks_started;
      if (w.observed) {
        std::printf("%s: %.2f samples/s, %llu retries, %llu re-paces, %llu drops\n",
                    name.c_str(), o.result.samples_per_sec,
                    static_cast<unsigned long long>(o.result.fault_stats.core_retries),
                    static_cast<unsigned long long>(o.result.link_repaces),
                    static_cast<unsigned long long>(o.result.fault_stats.drops_injected));
      }
    }
    std::printf("%s: %zu jobs, %llu events, %llu subtasks\n", name.c_str(), w.ops.size(),
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(subtasks));
  }
  for (const LayerDriver& d : kLayerDrivers) {
    const LayerResult r = d.run();
    out << "layers " << d.name << " " << LayerFingerprint(r) << "\n";
  }
  return out.good() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1 "
               "--reference FILE [--spans FILE]\n"
               "       perfbench_driver --record FILE | --stamp\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--stamp") {
      flags[flag] = "";
    } else if (flag.starts_with("--") && i + 1 < argc) {
      flags[flag] = argv[++i];
    } else {
      return Usage();
    }
  }
  static const char* const kKnown[] = {"--stamp",  "--record", "--workload", "--seed",
                                       "--seconds", "--trace", "--reference", "--spans"};
  for (const auto& [flag, value] : flags) {
    if (std::find(std::begin(kKnown), std::end(kKnown), flag) == std::end(kKnown)) {
      return Usage();
    }
  }
  if (flags.count("--stamp")) {
    std::printf("%s\n", StampJson().c_str());
    return Timeable() ? 0 : 3;
  }
  if (!Timeable()) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n", StampJson().c_str());
    return 3;
  }
  if (flags.count("--record")) {
    return Record(flags["--record"]);
  }
  RunArgs args;
  args.workload = flags["--workload"];
  args.reference = flags["--reference"];
  args.spans = flags["--spans"];
  try {
    args.seed = std::stoull(flags.count("--seed") ? flags["--seed"] : "1");
    args.seconds = std::stod(flags.count("--seconds") ? flags["--seconds"] : "10");
    args.trace = std::stoi(flags.count("--trace") ? flags["--trace"] : "0") != 0;
  } catch (const std::exception&) {
    return Usage();
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end() ||
      args.reference.empty() || args.seconds <= 0) {
    return Usage();
  }
  return Runner(args).Run();
}
