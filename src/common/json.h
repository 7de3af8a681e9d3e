// Minimal JSON document model + recursive-descent parser, used by the
// bench-diff engine to load BENCH_*.json profiles and gate files. No
// third-party dependency: the container only needs to read back the
// JSON its own exporters write (numbers, strings, bools, arrays,
// objects), so a few hundred lines suffice. The two writer helpers every
// exporter shares, JsonEscape and AppendF, live here too.
//
// Determinism note: objects are std::map (sorted keys), so iterating a
// parsed document — and therefore every report derived from one — is
// key-ordered regardless of the input file's key order. This file is in
// lob_lint's LOB002 exporter scope; unordered containers are banned here.

#ifndef LOB_COMMON_JSON_H_
#define LOB_COMMON_JSON_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace lob {

/// Escapes `s` for use inside a JSON string literal: `"` and `\`, and
/// every byte below 0x20 (as \b \f \n \r \t or \u00XX). Strings without
/// those bytes come back unchanged.
std::string JsonEscape(std::string_view s);

/// Appends printf-style formatted text to `*out`, growing it to fit:
/// output is never truncated.
void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// One JSON value. Numbers are stored as double (the exporters only
/// write doubles and 53-bit-safe integers).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  /// Parses a complete JSON document; trailing non-whitespace is an error.
  static StatusOr<JsonValue> Parse(const std::string& text);

  /// Reads and parses a JSON file.
  static StatusOr<JsonValue> ParseFile(const std::string& path);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const std::vector<JsonValue>& as_array() const { return arr_; }
  const std::map<std::string, JsonValue>& as_object() const { return obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const {
    if (kind_ != Kind::kObject) return nullptr;
    auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
  }

  /// Convenience: numeric member with default.
  double NumberOr(const std::string& key, double fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->is_number() ? v->num_ : fallback;
  }

  /// Convenience: boolean member with default.
  bool BoolOr(const std::string& key, bool fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->is_bool() ? v->bool_ : fallback;
  }

  /// Convenience: string member with default.
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->is_string() ? v->str_ : fallback;
  }

  std::vector<JsonValue>* mutable_array() {
    kind_ = Kind::kArray;
    return &arr_;
  }
  std::map<std::string, JsonValue>* mutable_object() {
    kind_ = Kind::kObject;
    return &obj_;
  }

 private:
  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::map<std::string, JsonValue> obj_;
};

}  // namespace lob

#endif  // LOB_COMMON_JSON_H_
