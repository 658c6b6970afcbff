// Sim-time metrics sampling pipeline: a TimeSeriesRecorder registered
// against a MetricsRegistry snapshots selected counters, gauges and log2
// quantile sketches on a fixed simulated-time cadence, producing the
// windowed runtime signals (queueing delay, credit occupancy, straggler
// spread *during* a run) the online auto-configuration controller consumes
// (ROADMAP item 3).
//
// Sampling is driven by ordinary Simulator timer events, grouped into
// *scopes*: every scope binds to the one simulator the recorder samples and
// reads one worker's metrics (its scheduler, NIC links and GPU). Ticks append
// their rows to one buffer in firing order. Every scope's chain is armed in
// scope order at the same interval, so at each time the ticks fire in scope
// order: the CSV comes out in (time, scope) order, byte-identical at any
// --jobs N.
//
// Zero-cost when disabled: a job with no recorder schedules no tick events
// and the simulation is bit-identical to a build without this file. An
// *enabled* recorder adds tick events (so event totals grow) but never
// mutates scheduler/network state, so iteration timings are unchanged.
#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metrics.h"

namespace bsched {

class Simulator;

class TimeSeriesRecorder {
 public:
  // `registry` must outlive the recorder; `interval` is the sampling cadence
  // in simulated time (must be > 0). Keep it a few times smaller than an
  // iteration — see EXPERIMENTS.md §Observability for cadence guidance.
  TimeSeriesRecorder(MetricsRegistry* registry, SimTime interval);
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  MetricsRegistry* registry() const { return registry_; }

  // Registers a sampling scope on `sim`. A recorder samples one simulator:
  // `sim` must be the first scope's (a CHECK failure otherwise), and every
  // source added to the scope must be written only by events running on it.
  // `active` is polled after each sample: the first tick on which it returns
  // false records the scope's final row and stops the chain, so the
  // predicate must eventually go false for the simulation to drain (e.g.
  // "engine not AllDone yet").
  // Returns the scope id.
  int AddScope(const std::string& name, Simulator* sim, std::function<bool()> active);

  // Source registration (before Start()): handles are resolved get-or-create
  // against the registry, exactly like the subsystems' own cached handles.
  // Counters and gauges record their instantaneous value per tick; sketches
  // record the *per-window* delta of a histogram (count, sum, p50/p95/p99 of
  // the observations that landed since the previous tick). Probes call an
  // arbitrary function (e.g. a Resource's busy time).
  void SampleCounter(int scope, const std::string& metric);
  void SampleGauge(int scope, const std::string& metric);
  void SampleSketch(int scope, const std::string& metric);
  void SampleProbe(int scope, const std::string& metric, std::function<int64_t()> probe);

  // Arms one periodic tick chain per scope (first tick at interval()).
  // Call exactly once, after every scope and source is registered and before
  // the simulation runs.
  void Start();

  // The CSV of every scope's rows in (time, scope) order:
  //   time_ns,scope,metric,kind,value,count,sum,p50,p95,p99
  // Counter/gauge/probe rows fill `value`; sketch rows fill the window
  // aggregate columns. Byte-deterministic for deterministic simulations.
  void WriteCsv(std::ostream& os) const;
  std::string ToCsv() const;

  // Total ticks recorded across all scopes (test / overhead probe).
  uint64_t total_ticks() const { return total_ticks_; }

 private:
  struct Source {
    enum class Kind { kCounter, kGauge, kSketch, kProbe };
    Kind kind;
    std::string name;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* hist = nullptr;
    std::function<int64_t()> probe;
    // Sketch window state: per-bucket counts and sum as of the previous tick.
    std::vector<uint64_t> last_buckets;
    int64_t last_sum = 0;
  };

  struct Scope {
    std::string name;
    std::function<bool()> active;
    std::vector<Source> sources;
  };

  Source& AddSource(int scope, Source::Kind kind, const std::string& metric);
  void SampleScope(Scope* scope);

  MetricsRegistry* registry_;
  SimTime interval_;
  bool started_ = false;
  // The simulator every scope samples; set by the first AddScope.
  Simulator* sim_ = nullptr;
  // Every tick's formatted CSV rows, appended in firing order.
  std::string rows_;
  uint64_t total_ticks_ = 0;
  std::vector<Scope> scopes_;
};

}  // namespace bsched

#endif  // SRC_OBS_TIMESERIES_H_
