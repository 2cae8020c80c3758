// The line-oriented JSON writer behind the repo's deterministic report
// emitters (rpcg-solve-report/v2 in engine/solve_report, and the service
// layer's rpcg-service-report/v3). Lives next to util/json.hpp's escaping
// helpers for the same reason those are shared: two hand-rolled copies of
// the same writer would drift apart on the same input.
//
// Output contract: stable key order (the caller's call order), two-space
// indentation relative to a caller-chosen base, shortest-round-trip doubles
// via std::to_chars — deterministic across platforms, unlike printf's
// locale- and precision-sensitive %g.
#pragma once

#include <charconv>
#include <cstddef>
#include <string>
#include <system_error>
#include <utility>

namespace rpcg {

/// Shortest round-trip rendering of a double for JSON scalars.
[[nodiscard]] inline std::string json_double(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

[[nodiscard]] inline std::string json_bool(bool v) {
  return v ? "true" : "false";
}

class JsonWriter {
 public:
  explicit JsonWriter(int indent) : base_(indent) {}

  void open(const char* bracket = "{") { line(bracket); ++depth_; }
  void close(const char* bracket = "}", bool comma = false) {
    --depth_;
    std::string s = bracket;
    if (comma) s += ',';
    line(s);
  }
  void field(const char* key, const std::string& rendered, bool comma = true) {
    std::string s = "\"";
    s += key;
    s += "\": ";
    s += rendered;
    if (comma) s += ',';
    line(s);
  }
  void raw(std::string rendered, bool comma = true) {
    if (comma) rendered += ',';
    line(rendered);
  }
  void open_field(const char* key, const char* bracket) {
    std::string s = "\"";
    s += key;
    s += "\": ";
    s += bracket;
    line(s);
    ++depth_;
  }
  /// Embeds a pre-rendered multi-line JSON value (itself produced with
  /// base indent `current_indent()`) as the value of `key`: the value's
  /// first-line indentation is dropped so it sits right after the key.
  void embed_field(const char* key, std::string rendered, bool comma = true) {
    const auto body_start = rendered.find_first_not_of(' ');
    if (body_start != std::string::npos && body_start > 0) {
      rendered.erase(0, body_start);
    }
    std::string s = "\"";
    s += key;
    s += "\": ";
    s += rendered;
    if (comma) s += ',';
    line(s);
  }

  /// The absolute indentation of lines written at the current depth — what
  /// nested pre-rendered values should be produced with.
  [[nodiscard]] int current_indent() const { return base_ + 2 * depth_; }

  /// The document, with the final newline trimmed so it can be embedded.
  [[nodiscard]] std::string str() && {
    if (!out_.empty() && out_.back() == '\n') out_.pop_back();
    return std::move(out_);
  }

 private:
  void line(const std::string& s) {
    out_.append(static_cast<std::size_t>(base_ + 2 * depth_), ' ');
    out_ += s;
    out_ += '\n';
  }

  std::string out_;
  int base_;
  int depth_ = 0;
};

}  // namespace rpcg
