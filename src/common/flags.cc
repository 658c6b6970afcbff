#include "src/common/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "src/common/units.h"

namespace bsched {

Flags::Flags(int argc, const char* const* argv) : program_(argc > 0 ? argv[0] : "") {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (!arg.empty() && arg[0] == '-') {
        errors_.push_back(arg);
      } else {
        positional_.push_back(arg);
      }
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) {
      errors_.push_back(arg);
      continue;
    }
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" if the next token is not itself a flag; else bare bool.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const { return values_.count(name) > 0; }

bool Flags::CheckNames(const char* program, const std::vector<std::string_view>& known) const {
  bool ok = true;
  for (const std::string& token : errors_) {
    std::fprintf(stderr, "%s: malformed flag '%s' (use --name or --name=value)\n", program,
                 token.c_str());
    ok = false;
  }
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "%s: unknown flag '--%s'\n", program, name.c_str());
      ok = false;
    }
  }
  return ok;
}

std::string Flags::GetString(const std::string& name, const std::string& def) const {
  auto it = values_.find(name);
  return it != values_.end() ? it->second : def;
}

template <typename T>
T Flags::GetNumber(const std::string& name, T def, const char* what) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  // The whole value must parse: no empty value, trailing text, overflow or,
  // for a double, non-finite result.
  const std::string& text = it->second;
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value);
  }
  if (!ok) {
    RejectValue(name, what);
  }
  return value;
}

void Flags::RejectValue(const std::string& name, const char* what) const {
  std::fprintf(stderr, "%s: --%s needs %s, got '%s'\n", program_.c_str(), name.c_str(), what,
               GetString(name, "").c_str());
  std::exit(2);
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  return GetNumber<int64_t>(name, def, "a whole number");
}

double Flags::GetDouble(const std::string& name, double def) const {
  return GetNumber<double>(name, def, "a finite number");
}

double Flags::GetGbps(const std::string& name, double def) const {
  const double gbps = GetDouble(name, def);
  if (gbps < Bandwidth::kMinGbps) {
    RejectValue(name, "a bandwidth of at least 1e-06 Gbps");
  }
  return gbps;
}

uint64_t Flags::GetSeed(const std::string& name, uint64_t def) const {
  const int64_t seed = GetInt(name, static_cast<int64_t>(def));
  if (seed < 0) {
    RejectValue(name, "a non-negative seed");
  }
  return static_cast<uint64_t>(seed);
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes") {
    return true;
  }
  if (value != "false" && value != "0" && value != "no") {
    RejectValue(name, "true, false, 1, 0, yes or no");
  }
  return false;
}

namespace {

// One sink's path: the flag's value, or `def` when it is bare ("--trace"
// parses as the boolean "true") or empty, or when it is absent and --obs
// enables every sink; "" (off) otherwise.
std::string PathOrDefault(const Flags& flags, const std::string& name, const char* def) {
  if (!flags.Has(name)) {
    return flags.GetBool("obs", false) ? def : "";
  }
  const std::string value = flags.GetString(name, "");
  return value.empty() || value == "true" ? def : value;
}

}  // namespace

ObsFlags ParseObsFlags(const Flags& flags) {
  ObsFlags obs;
  obs.trace_path = PathOrDefault(flags, "trace", "trace.json");
  obs.metrics_path = PathOrDefault(flags, "metrics", "metrics.json");
  obs.timeseries_path = PathOrDefault(flags, "timeseries", "timeseries.csv");
  // The cadence becomes SimTime::Micros(us), whose nanoseconds must fit in
  // int64. --sample-every alone implies time-series sampling at it.
  const int64_t sample_every_us = flags.GetInt("sample-every", 100);
  if (sample_every_us < 1 || sample_every_us > INT64_MAX / 1000) {
    flags.RejectValue("sample-every", "a whole number of microseconds in [1, 9223372036854775]");
  }
  if (flags.Has("sample-every") && obs.timeseries_path.empty()) {
    obs.timeseries_path = "timeseries.csv";
  }
  if (!obs.timeseries_path.empty()) {
    obs.sample_every_us = sample_every_us;
  }
  return obs;
}

}  // namespace bsched
