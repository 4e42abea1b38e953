// A minimal JSON DOM: parser, value model, and writer helpers.
//
// The repo emits machine-readable JSON from several places (bench harness,
// pfbench, sampler, flight recorder) and — since the performance observatory
// (DESIGN.md §14) — also *consumes* it: `pfbench --compare` diffs a fresh
// bench run against a committed baseline, pfstat --trend summarizes a trend
// file, and tests/bench_json_test round-trips the schema. This is a
// deliberately small recursive-descent parser for that tooling: full JSON
// syntax, DOM values, no streaming, no SAX, not tuned for huge documents.
#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pfutil {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::map<std::string, JsonValue>& AsObject() const { return object_; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  // Typed convenience lookups with defaults, for schema readers.
  double GetNumber(const std::string& key, double fallback = 0.0) const;
  std::string GetString(const std::string& key, const std::string& fallback = "") const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  // Construction (used by tests; the emitters build strings directly).
  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double n);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Deepest array/object nesting ParseJson accepts. Deeper input fails with
// an error rather than exhausting the stack; the documents read here nest a
// handful of levels.
inline constexpr size_t kMaxJsonDepth = 512;

// Parses `text` into `*out`. Returns false and sets `*error` (with a byte
// offset) on malformed input. Trailing whitespace is allowed, trailing
// garbage is not.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

// --- Writer helpers (shared by every JSON emitter in the repo) ---

// Escapes `"`, `\`, and control characters (as \u00XX) for embedding in a
// JSON string literal. Does not add the surrounding quotes.
std::string JsonEscape(const std::string& s);

// Shortest round-trippable representation of a double ("%.17g" would be
// noisy; "%.6g" loses precision on counters — this picks the shortest form
// that parses back exactly). NaN/Inf — not representable in JSON — emit as
// null.
std::string JsonNumber(double v);

}  // namespace pfutil

#endif  // SRC_UTIL_JSON_H_
