#include "src/common/units.h"

#include <cmath>
#include <cstdio>

namespace bsched {

std::string SimTime::ToString() const {
  char buf[64];
  if (ns_ >= 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3fs", ToSeconds());
  } else if (ns_ >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3fms", ToMillis());
  } else if (ns_ >= 1'000) {
    std::snprintf(buf, sizeof(buf), "%.3fus", ToMicros());
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns_));
  }
  return buf;
}

SimTime BackoffTimeout(SimTime timeout, double backoff, int attempt) {
  double scale = 1.0;
  for (int i = 0; i < attempt; ++i) {
    scale *= backoff;
  }
  return SimTime(static_cast<int64_t>(static_cast<double>(timeout.nanos()) * scale));
}

std::string FormatBytes(Bytes b) {
  char buf[64];
  if (b >= GiB(1)) {
    std::snprintf(buf, sizeof(buf), "%.2fGiB", static_cast<double>(b) / GiB(1));
  } else if (b >= MiB(1)) {
    std::snprintf(buf, sizeof(buf), "%.2fMiB", static_cast<double>(b) / MiB(1));
  } else if (b >= KiB(1)) {
    std::snprintf(buf, sizeof(buf), "%.2fKiB", static_cast<double>(b) / KiB(1));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldB", static_cast<long long>(b));
  }
  return buf;
}

SimTime Bandwidth::TransmitTime(Bytes size) const {
  if (bytes_per_sec_ <= 0) {
    return SimTime::Max();
  }
  double sec = static_cast<double>(size) / bytes_per_sec_;
  return SimTime(static_cast<int64_t>(std::llround(sec * 1e9)));
}

}  // namespace bsched
