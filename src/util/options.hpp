// Minimal command-line option parser used by benches and examples.
// Accepts "--key=value", "--key value", and boolean "--flag" forms.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/enum_names.hpp"

namespace rpcg {

class Options {
 public:
  Options() = default;

  /// Parses argv. Throws std::invalid_argument on malformed input
  /// (non "--"-prefixed tokens).
  Options(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Throws std::invalid_argument for the first flag given (in key order)
  /// that is not in `valid`, naming it and listing the valid flags: a
  /// misspelled flag must not run with its default.
  void require_known(const std::vector<std::string>& valid) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// Throws std::invalid_argument unless the whole value is a base-10
  /// integer in range ("2x" and "2.9" are rejected, not truncated).
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  /// Throws std::invalid_argument unless the whole value is a number strtod
  /// reads without range error ("1e-8x", "abc", "" and "nan" are rejected).
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated integer list, e.g. "--phis=1,3,8"; each item is
  /// checked like get_int.
  [[nodiscard]] std::vector<long> get_int_list(const std::string& key,
                                               std::vector<long> fallback) const;

  /// Named enum value, e.g. --recovery=esr or --strategy=ring. E must have
  /// an EnumNames table (see util/enum_names.hpp); an unknown name throws
  /// std::invalid_argument listing the valid keys.
  template <typename E>
  [[nodiscard]] E get_enum(const std::string& key, E fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return from_string<E>(it->second);
  }

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace rpcg
