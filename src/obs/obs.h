// ObsContext: the handle every instrumented subsystem receives. Bundles the
// two observability sinks — a TraceRecorder for causal spans/flow events and
// a MetricsRegistry for counters/gauges/histograms — plus the flow-id
// bookkeeping that stitches a partition's life (queue admit -> credit grant
// -> link transit -> PS push/update/pull or ring hop -> finish) into one
// connected arc across tracks.
//
// A null ObsContext (or null members) disables the corresponding layer with
// a single pointer check at each site; no simulation events are ever
// scheduled by instrumentation, so an instrumented run is event-for-event
// identical to an uninstrumented one.
//
// Flow-id bookkeeping is NOT thread-safe: one ObsContext belongs to one
// job's (single-threaded) Simulator. The MetricsRegistry it points to may be
// shared across threads — its handles are atomics.
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <cstdint>
#include <map>
#include <tuple>

#include "src/common/trace.h"
#include "src/obs/metrics.h"

namespace bsched {

class ObsContext {
 public:
  ObsContext() = default;
  ObsContext(TraceRecorder* trace, MetricsRegistry* metrics)
      : trace_(trace), metrics_(metrics) {}

  TraceRecorder* trace() const { return trace_; }
  MetricsRegistry* metrics() const { return metrics_; }

  bool tracing() const { return trace_ != nullptr; }

  // ---- flow arcs ----------------------------------------------------------
  // A flow id ties trace events on different tracks into one arc. The
  // scheduler opens a flow when it first admits a push (or all-reduce)
  // partition; the backend steps it through link/shard hops; the matching
  // pull's completion closes it. Ids are never 0 (0 = "no flow").

  // Opens (or reopens, for a new iteration reusing the same slot) the flow of
  // one (worker, tensor, partition) and returns its id.
  uint64_t BeginPartitionFlow(int worker, int64_t tensor_id, int partition) {
    const uint64_t id = ++last_flow_;
    partition_flows_[Key{worker, tensor_id, partition}] = id;
    return id;
  }

  // The open flow of a partition, or 0 when none (e.g. a pull admitted with
  // no tracked push, as in the TF step-start variable reads).
  uint64_t LookupPartitionFlow(int worker, int64_t tensor_id, int partition) const {
    const auto it = partition_flows_.find(Key{worker, tensor_id, partition});
    return it != partition_flows_.end() ? it->second : 0;
  }

  void EndPartitionFlow(int worker, int64_t tensor_id, int partition) {
    partition_flows_.erase(Key{worker, tensor_id, partition});
  }

 private:
  using Key = std::tuple<int, int64_t, int>;

  TraceRecorder* trace_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  uint64_t last_flow_ = 0;
  std::map<Key, uint64_t> partition_flows_;
};

}  // namespace bsched

#endif  // SRC_OBS_OBS_H_
