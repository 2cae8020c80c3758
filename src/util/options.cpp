#include "util/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/check.hpp"

namespace rpcg {

namespace {

/// The whole token as a base-10 long; "2x", "2.9", "" and out-of-range
/// values throw instead of parsing a prefix.
long parse_long(const std::string& key, const std::string& token) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + key + " must be an integer, got \"" +
                                token + "\"");
  }
  return v;
}

/// The whole token as a finite or infinite double; "1e-8x", "abc", "",
/// "nan" and values strtod reports out of range throw instead of parsing a
/// prefix (or nothing) as a number.
double parse_double(const std::string& key, const std::string& token) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE || std::isnan(v)) {
    throw std::invalid_argument("--" + key + " must be a number, got \"" +
                                token + "\"");
  }
  return v;
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    RPCG_CHECK(tok.size() > 2 && tok.rfind("--", 0) == 0,
               "options must start with --, got: " + tok);
    tok = tok.substr(2);
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      kv_[tok.substr(0, eq)] = tok.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[tok] = argv[++i];
    } else {
      kv_[tok] = "true";  // bare boolean flag
    }
  }
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

void Options::require_known(const std::vector<std::string>& valid) const {
  for (const auto& [key, value] : kv_) {
    if (std::find(valid.begin(), valid.end(), key) != valid.end()) continue;
    std::string msg = "unknown flag --" + key + " (valid flags:";
    for (const std::string& v : valid) {
      msg += " --";
      msg += v;
    }
    throw std::invalid_argument(msg + ")");
  }
}

std::string Options::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

long Options::get_int(const std::string& key, long fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_long(key, it->second);
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_double(key, it->second);
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<long> Options::get_int_list(const std::string& key,
                                        std::vector<long> fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  std::vector<long> out;
  std::string s = it->second;
  std::size_t pos = 0;
  while (pos < s.size()) {
    auto comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(parse_long(key, s.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  RPCG_CHECK(!out.empty(), "empty integer list for --" + key);
  return out;
}

}  // namespace rpcg
