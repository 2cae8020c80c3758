// Shared JSON string escaping and number rendering for the repo's JSON
// emitters (rpcg-solve-report/v2 in engine/solve_report, the service's
// rpcg-service-report/v3, and rpcg_bench's reports and traces), so they
// cannot drift apart on the same input.
#pragma once

#include <cstdio>
#include <string>

namespace rpcg {

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes, and control characters (as \u00XX).
[[nodiscard]] inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// `s` as a complete JSON string literal, quotes included.
[[nodiscard]] inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

/// Shortest human-readable rendering of a double: integral values print
/// without a fractional part ("8", not "8.000000"), everything else with
/// %g. Used wherever numbers are pasted into command lines or JSON scalars
/// (e.g. run_all's bench command lines).
[[nodiscard]] inline std::string format_compact(double v) {
  char buf[32];
  // Range check first: casting NaN or a value beyond long long to integer
  // is undefined behavior, so it must be guarded, not relied on.
  if (v >= -1e15 && v <= 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%g", v);
  }
  return buf;
}

}  // namespace rpcg
