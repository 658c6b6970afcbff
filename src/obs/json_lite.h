// Minimal JSON reader/writer helpers for the observability tooling: the
// obs_report CLI and the round-trip tests parse exported trace and metrics
// files without external dependencies. Supports the full JSON value grammar
// (objects, arrays, strings with escapes, numbers, booleans, null); numbers
// are held as double, which is exact for every integer this repo emits.
#ifndef SRC_OBS_JSON_LITE_H_
#define SRC_OBS_JSON_LITE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bsched {
namespace obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  // Insertion order preserved (duplicate keys keep the last occurrence on
  // Find, which matches common parser behaviour).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  // Object member lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  double NumberOr(double def) const { return is_number() ? number : def; }
  int64_t IntOr(int64_t def) const {
    return is_number() ? static_cast<int64_t>(number) : def;
  }
  std::string StringOr(std::string def) const { return is_string() ? str : std::move(def); }
};

// Parses `text` into `out`. On failure returns false and, if `error` is
// non-null, stores a message with the byte offset of the problem.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error = nullptr);

}  // namespace obs
}  // namespace bsched

#endif  // SRC_OBS_JSON_LITE_H_
