// Minimal owning JSON document for the service layer's job files.
//
// The repo *emits* JSON in two hand-rolled writers (rpcg-bench-report/v1 and
// rpcg-solve-report/v2) but never had to read any: the batch job files of
// SolverService are the first input format. This parser covers exactly the
// JSON the job format needs — null/bool/number/string/array/object, UTF-8
// passed through verbatim, \uXXXX escapes limited to the BMP — and keeps
// object members in insertion order (a vector of pairs, not an unordered
// map), so diagnostics and iteration order are deterministic.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rpcg::service {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered members; duplicate keys are rejected at parse time.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null

  /// Parses one complete JSON document (trailing whitespace allowed,
  /// trailing garbage rejected). Throws std::invalid_argument with a
  /// character offset on malformed input.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  // Value factories (used by the parser; handy for tests too).
  [[nodiscard]] static JsonValue make(bool v);
  [[nodiscard]] static JsonValue make(double v);
  [[nodiscard]] static JsonValue make(std::string v);
  [[nodiscard]] static JsonValue make(Array v);
  [[nodiscard]] static JsonValue make(Object v);

  [[nodiscard]] Kind kind() const {
    return static_cast<Kind>(value_.index());
  }
  [[nodiscard]] bool is_null() const { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind() == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind() == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind() == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind() == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind() == Kind::kObject; }

  // Typed accessors; a kind mismatch throws std::invalid_argument naming the
  // actual kind, so job-file diagnostics stay readable.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent (or when not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  [[nodiscard]] static const char* kind_name(Kind k);

 private:
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      value_;
};

}  // namespace rpcg::service
