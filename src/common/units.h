// Strongly-typed units used across the simulator: virtual time, byte counts,
// and bandwidths. Keeping these as distinct vocabulary types (rather than bare
// int64_t/double) prevents the classic unit-mixing bugs in timing code.
#ifndef SRC_COMMON_UNITS_H_
#define SRC_COMMON_UNITS_H_

#include <cstdint>
#include <string>

namespace bsched {

// Virtual simulation time with nanosecond resolution. Arithmetic is checked
// only by type discipline; the simulator never produces negative times.
class SimTime {
 public:
  constexpr SimTime() : ns_(0) {}
  constexpr explicit SimTime(int64_t ns) : ns_(ns) {}

  static constexpr SimTime Nanos(int64_t v) { return SimTime(v); }
  static constexpr SimTime Micros(int64_t v) { return SimTime(v * 1000); }
  static constexpr SimTime Millis(int64_t v) { return SimTime(v * 1000 * 1000); }
  static constexpr SimTime Seconds(double v) {
    return SimTime(static_cast<int64_t>(v * 1e9));
  }
  static constexpr SimTime Max() { return SimTime(INT64_MAX); }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) * 1e-9; }
  constexpr double ToMillis() const { return static_cast<double>(ns_) * 1e-6; }
  constexpr double ToMicros() const { return static_cast<double>(ns_) * 1e-3; }

  constexpr SimTime operator+(SimTime o) const { return SimTime(ns_ + o.ns_); }
  constexpr SimTime operator-(SimTime o) const { return SimTime(ns_ - o.ns_); }
  SimTime& operator+=(SimTime o) {
    ns_ += o.ns_;
    return *this;
  }
  constexpr SimTime operator*(int64_t k) const { return SimTime(ns_ * k); }
  constexpr auto operator<=>(const SimTime&) const = default;

  std::string ToString() const;

 private:
  int64_t ns_;
};

// Timeout of retry attempt `attempt` (0 = the first try) under exponential
// backoff: timeout * backoff^attempt, truncated to whole nanoseconds.
SimTime BackoffTimeout(SimTime timeout, double backoff, int attempt);

// A byte count. Plain alias: byte counts mix with sizes frequently enough that
// a wrapper class costs more than it protects.
using Bytes = int64_t;

constexpr Bytes KiB(int64_t v) { return v * 1024; }
constexpr Bytes MiB(int64_t v) { return v * 1024 * 1024; }
constexpr Bytes GiB(int64_t v) { return v * 1024 * 1024 * 1024; }

std::string FormatBytes(Bytes b);

// Link bandwidth. Stored as bytes per second; constructed from network-style
// decimal gigabits (1 Gbps == 1e9 bits/s) to match the paper's units.
class Bandwidth {
 public:
  constexpr Bandwidth() : bytes_per_sec_(0) {}
  static constexpr Bandwidth BytesPerSec(double v) {
    Bandwidth b;
    b.bytes_per_sec_ = v;
    return b;
  }
  static constexpr Bandwidth Gbps(double v) { return BytesPerSec(v * 1e9 / 8.0); }

  // The smallest bandwidth a command line accepts (1 kbit/s): at it a 4 GiB
  // message (the most a PS hop carries) takes ~3.4e16 ns, 1/268 of
  // SimTime's int64 nanoseconds, so transfer times cannot overflow.
  static constexpr double kMinGbps = 1e-6;

  constexpr double bytes_per_sec() const { return bytes_per_sec_; }
  constexpr double ToGbps() const { return bytes_per_sec_ * 8.0 / 1e9; }

  // Time to serialize `size` bytes at this rate (no per-message overhead).
  SimTime TransmitTime(Bytes size) const;

  constexpr auto operator<=>(const Bandwidth&) const = default;

 private:
  double bytes_per_sec_;
};

}  // namespace bsched

#endif  // SRC_COMMON_UNITS_H_
