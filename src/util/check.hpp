// Precondition / invariant checking macros.
//
// RPCG_CHECK   — validates user-facing preconditions; throws std::invalid_argument.
// RPCG_REQUIRE — validates internal invariants; throws std::logic_error.
// Both are always on (the library is not performance-critical enough in its
// control paths to justify compiling checks out, and the failure-injection
// machinery relies on them to catch use of lost data).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rpcg::detail {

/// `file` from its last `src/` path component on: the compiler's __FILE__
/// names the checkout, and a message must read the same in every checkout.
constexpr std::string_view source_path(std::string_view file) {
  const std::size_t pos = file.rfind("/src/");
  return pos == std::string_view::npos ? file : file.substr(pos + 1);
}

[[noreturn]] inline void throw_check_failure(const char* kind, const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << source_path(file) << ":"
     << line;
  if (!msg.empty()) os << " — " << msg;
  if (std::string(kind) == "RPCG_CHECK") throw std::invalid_argument(os.str());
  throw std::logic_error(os.str());
}

}  // namespace rpcg::detail

#define RPCG_CHECK(expr, msg)                                                     \
  do {                                                                            \
    if (!(expr))                                                                  \
      ::rpcg::detail::throw_check_failure("RPCG_CHECK", #expr, __FILE__, __LINE__, \
                                          (msg));                                 \
  } while (0)

#define RPCG_REQUIRE(expr, msg)                                                     \
  do {                                                                              \
    if (!(expr))                                                                    \
      ::rpcg::detail::throw_check_failure("RPCG_REQUIRE", #expr, __FILE__, __LINE__, \
                                          (msg));                                   \
  } while (0)
