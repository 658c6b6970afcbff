// Execution-trace recording. The runtime can log per-op and per-tensor spans
// into a TraceRecorder, which exports Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto to see compute/communication overlap — the
// quantity ByteScheduler optimizes).
//
// Beyond plain spans and instants, the recorder supports:
//  - integer span metadata (TraceArg), rendered as the event's "args" object;
//  - flow events (Chrome phases "s"/"t"/"f"): points sharing a flow id are
//    drawn as one connected arc across tracks, which is how a partition's
//    life (queue admit -> link transit -> shard update -> pull -> finish)
//    stays followable in Perfetto. The recorder hands out the ids from one
//    counter (NewFlowId), so every arc of one trace has its own id.
// Track ids are assigned deterministically in first-use order, and the
// thread-name metadata is emitted in that same order.
#ifndef SRC_COMMON_TRACE_H_
#define SRC_COMMON_TRACE_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/units.h"

namespace bsched {

// Escapes a string for embedding in a JSON string literal: quotes,
// backslashes, and control characters (as \uXXXX or the short forms), so
// tensor names like grad["fc1"] or layer\tname survive a round-trip.
std::string JsonEscape(std::string_view s);

// One key/value entry of a span's "args" metadata.
struct TraceArg {
  std::string key;
  int64_t value = 0;

  static TraceArg Int(std::string key, int64_t v) { return {std::move(key), v}; }
};

// Position of a flow point within its arc.
enum class FlowPhase {
  kStart,  // "s": opens the arc
  kStep,   // "t": intermediate hop
  kEnd,    // "f": closes the arc
};

class TraceRecorder {
 public:
  // Records a complete span [start, end] on a named track (one trace "tid"
  // per track). Spans may be added in any order.
  void AddSpan(const std::string& track, const std::string& name, SimTime start, SimTime end);
  void AddSpan(const std::string& track, const std::string& name, SimTime start, SimTime end,
               std::vector<TraceArg> args);

  // Records a zero-duration instant marker.
  void AddInstant(const std::string& track, const std::string& name, SimTime at);

  // Records one point of a flow arc. All points of one arc share `flow_id`
  // (which must be non-zero); Perfetto draws an arrow chain start -> steps ->
  // end across whatever tracks the points landed on.
  void AddFlow(const std::string& track, const std::string& name, SimTime at, uint64_t flow_id,
               FlowPhase phase);
  // A fresh flow id for a new arc: 1, 2, ... in call order, never 0 (0 means
  // "no flow").
  uint64_t NewFlowId() { return ++last_flow_id_; }

  size_t num_events() const { return events_.size(); }
  size_t num_flow_events() const { return num_flow_events_; }
  bool empty() const { return events_.empty(); }

  // Chrome trace-event JSON (array form); timestamps in microseconds.
  void WriteChromeTrace(std::ostream& os) const;

  // Total span time per track (utilization summaries in tests/tools). Flow
  // points and instants contribute nothing.
  SimTime TrackBusyTime(const std::string& track) const;
  // Track names in lexicographic order.
  std::vector<std::string> Tracks() const;

 private:
  enum class EventKind { kSpan, kInstant, kFlow };

  struct Event {
    std::string track;
    std::string name;
    SimTime start;
    SimTime end;  // == start for instants and flow points
    EventKind kind = EventKind::kSpan;
    std::vector<TraceArg> args;
    uint64_t flow_id = 0;
    FlowPhase flow_phase = FlowPhase::kStart;
  };

  int TrackId(const std::string& track);

  std::vector<Event> events_;
  size_t num_flow_events_ = 0;
  uint64_t last_flow_id_ = 0;
  // Track name -> tid, assigned in first-use order.
  std::map<std::string, int> track_ids_;
};

}  // namespace bsched

#endif  // SRC_COMMON_TRACE_H_
