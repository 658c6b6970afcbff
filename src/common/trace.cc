#include "src/common/trace.h"

#include <cstdio>

#include "src/common/check.h"

namespace bsched {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c) & 0xFF);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

// Fixed-precision microsecond timestamps: default double formatting drops
// sub-microsecond digits past 6 significant figures, which breaks span
// ordering for long runs.
std::string Micros(SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", t.ToMicros());
  return buf;
}

void WriteArgs(std::ostream& os, const std::vector<TraceArg>& args) {
  os << R"(,"args":{)";
  bool first = true;
  for (const TraceArg& arg : args) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << '"' << JsonEscape(arg.key) << "\":" << arg.value;
  }
  os << "}";
}

}  // namespace

void TraceRecorder::AddSpan(const std::string& track, const std::string& name, SimTime start,
                            SimTime end) {
  AddSpan(track, name, start, end, {});
}

void TraceRecorder::AddSpan(const std::string& track, const std::string& name, SimTime start,
                            SimTime end, std::vector<TraceArg> args) {
  BSCHED_CHECK(end >= start);
  Event ev;
  ev.track = track;
  ev.name = name;
  ev.start = start;
  ev.end = end;
  ev.kind = EventKind::kSpan;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
  TrackId(track);
}

void TraceRecorder::AddInstant(const std::string& track, const std::string& name, SimTime at) {
  Event ev;
  ev.track = track;
  ev.name = name;
  ev.start = at;
  ev.end = at;
  ev.kind = EventKind::kInstant;
  events_.push_back(std::move(ev));
  TrackId(track);
}

void TraceRecorder::AddFlow(const std::string& track, const std::string& name, SimTime at,
                            uint64_t flow_id, FlowPhase phase) {
  BSCHED_CHECK(flow_id != 0);
  Event ev;
  ev.track = track;
  ev.name = name;
  ev.start = at;
  ev.end = at;
  ev.kind = EventKind::kFlow;
  ev.flow_id = flow_id;
  ev.flow_phase = phase;
  events_.push_back(std::move(ev));
  ++num_flow_events_;
  TrackId(track);
}

int TraceRecorder::TrackId(const std::string& track) {
  auto [it, inserted] = track_ids_.emplace(track, static_cast<int>(track_ids_.size()));
  return it->second;
}

void TraceRecorder::WriteChromeTrace(std::ostream& os) const {
  os << "[\n";
  bool first = true;
  // Thread-name metadata in ascending tid order (== first-use order), so the
  // file layout is deterministic and matches Perfetto's track numbering.
  std::vector<const std::string*> by_tid(track_ids_.size());
  for (const auto& [track, tid] : track_ids_) {
    by_tid[static_cast<size_t>(tid)] = &track;
  }
  for (size_t tid = 0; tid < by_tid.size(); ++tid) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << R"({"ph":"M","pid":1,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":")" << JsonEscape(*by_tid[tid]) << "\"}}";
  }
  for (const Event& ev : events_) {
    const int tid = track_ids_.at(ev.track);
    if (!first) {
      os << ",\n";
    }
    first = false;
    switch (ev.kind) {
      case EventKind::kInstant:
        os << R"({"ph":"i","pid":1,"tid":)" << tid << R"(,"ts":)" << Micros(ev.start)
           << R"(,"s":"t","name":")" << JsonEscape(ev.name) << "\"}";
        break;
      case EventKind::kSpan:
        os << R"({"ph":"X","pid":1,"tid":)" << tid << R"(,"ts":)" << Micros(ev.start)
           << R"(,"dur":)" << Micros(ev.end - ev.start) << R"(,"name":")" << JsonEscape(ev.name)
           << '"';
        if (!ev.args.empty()) {
          WriteArgs(os, ev.args);
        }
        os << "}";
        break;
      case EventKind::kFlow: {
        const char* ph = ev.flow_phase == FlowPhase::kStart  ? "s"
                         : ev.flow_phase == FlowPhase::kStep ? "t"
                                                             : "f";
        os << R"({"ph":")" << ph << R"(","cat":"flow","id":)" << ev.flow_id
           << R"(,"pid":1,"tid":)" << tid << R"(,"ts":)" << Micros(ev.start);
        if (ev.flow_phase == FlowPhase::kEnd) {
          // Bind to the enclosing slice so the arrow lands on the span that
          // contains this point rather than the next slice to start.
          os << R"(,"bp":"e")";
        }
        os << R"(,"name":")" << JsonEscape(ev.name) << "\"}";
        break;
      }
    }
  }
  os << "\n]\n";
}

SimTime TraceRecorder::TrackBusyTime(const std::string& track) const {
  SimTime total;
  for (const Event& ev : events_) {
    if (ev.track == track && ev.kind == EventKind::kSpan) {
      total += ev.end - ev.start;
    }
  }
  return total;
}

std::vector<std::string> TraceRecorder::Tracks() const {
  std::vector<std::string> tracks;
  tracks.reserve(track_ids_.size());
  for (const auto& [track, id] : track_ids_) {
    tracks.push_back(track);
  }
  return tracks;
}

}  // namespace bsched
