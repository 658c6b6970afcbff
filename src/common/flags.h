// Tiny command-line flag parser for the example/bench executables.
// Accepts --key=value and --key value; bare --key is a boolean true.
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bsched {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  // The numeric getters accept only a value that is one whole number token
  // (and, for GetDouble, finite). Anything else — "2x", "abc", an empty
  // value, an overflowing "1e999", "nan" — prints the program, the flag and
  // the value to stderr and exits with status 2, like an unknown flag, so a
  // typo cannot silently run as 0 or as the default.
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  // Arguments that were not --flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }
  // Tokens that looked malformed (e.g. "-x"), for error reporting.
  const std::vector<std::string>& errors() const { return errors_; }
  // Prints each malformed token and each --name outside `known` to stderr,
  // prefixed with `program`; returns true when there was none. The bench and
  // example binaries then exit with status 2, so a typo'd or retired flag
  // cannot silently run the defaults.
  bool CheckNames(const char* program, const std::vector<std::string_view>& known) const;

 private:
  template <typename T>
  T GetNumber(const std::string& name, T def, const char* what) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
};

// Observability artifact paths parsed from the shared --trace / --metrics /
// --timeseries / --sample-every / --obs flags. Every figure binary that
// accepts these can emit a Chrome trace, a metrics snapshot and a sim-time
// series CSV next to its normal output.
struct ObsFlags {
  std::string trace_path;       // empty = tracing off
  std::string metrics_path;     // empty = metrics off
  std::string timeseries_path;  // empty = time-series sampling off
  // Sampling cadence in simulated microseconds (only meaningful when
  // timeseries_path is set; defaults to 100us).
  int64_t sample_every_us = 0;

  bool enabled() const {
    return !trace_path.empty() || !metrics_path.empty() || !timeseries_path.empty();
  }
};

// --trace[=path], --metrics[=path] and --timeseries[=path] enable the
// respective sink (default paths "trace.json" / "metrics.json" /
// "timeseries.csv" when no value is given); bare --obs enables all three
// with default paths. --sample-every=<us> sets the sampling cadence (and
// implies --timeseries when given alone; default 100us).
ObsFlags ParseObsFlags(const Flags& flags);

}  // namespace bsched

#endif  // SRC_COMMON_FLAGS_H_
