// Seeded mutation fuzzing of the inputs that come from outside the
// repository: JSON-lines job files, MatrixMarket files, and the matrix ids
// and failure lists `rpcg-cli solve` takes as flags. Valid inputs are
// mutated a few thousand times each (byte flip, insert, delete, span
// duplicate, truncation) with a fixed rpcg::Rng seed, so every run sees the
// same mutants. Each mutant must parse or be refused with
// std::invalid_argument; any other exception fails the test, and the
// sanitizer builds turn a crash or undefined behaviour into a failure too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>

#include "service/job.hpp"
#include "service/json_value.hpp"
#include "sparse/matrix_market.hpp"
#include "util/rng.hpp"

namespace {

using rpcg::service::JsonValue;

constexpr int kMutants = 3000;

// The job line of JobParsing.ParsesFullJobWithConfigForwarding.
constexpr const char* kJobLine =
    R"({"name": "m2-esr", "matrix": "M2", "scale": 64, "nodes": 16,)"
    R"( "solver": "resilient-pcg", "precond": "bjacobi",)"
    R"( "recovery": "esr", "phi": 2, "rtol": 1e-9,)"
    R"( "failures": [{"iteration": 10, "first": 0, "psi": 2},)"
    R"( {"iteration": 20, "nodes": [3, 5]}]})";

// An `rpcg-cli solve --failures` list and a `--matrix` id.
constexpr const char* kFailureList = "3:1:2,7:0:1";
constexpr const char* kMatrixId = "M3";

constexpr const char* kGeneralMtx =
    "%%MatrixMarket matrix coordinate real general\n"
    "% a comment line\n"
    "3 3 6\n"
    "1 1 4.0\n"
    "2 1 -1.0\n"
    "1 2 -1.0\n"
    "2 2 4.5e0\n"
    "3 2 -0.25\n"
    "3 3 4\n";

constexpr const char* kSymmetricMtx =
    "%%MatrixMarket matrix coordinate real symmetric\n"
    "3 3 5\n"
    "1 1 2.0\n"
    "2 1 -1.0\n"
    "2 2 2.0\n"
    "3 2 -1.0\n"
    "3 3 2.0\n";

/// 1 to 4 random edits of `s`.
std::string mutate(rpcg::Rng& rng, std::string s) {
  // Bytes that matter to the grammars, drawn for half of the inserts.
  static constexpr char kSyntax[] = "{}[]\":,.-+eE0123456789 \n\t%\\u";
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_index(n));
  };
  const int edits = 1 + static_cast<int>(rng.uniform_index(4));
  for (int e = 0; e < edits; ++e) {
    switch (rng.uniform_index(5)) {
      case 0:  // byte flip
        if (!s.empty())
          s[pick(s.size())] ^= static_cast<char>(1u << rng.uniform_index(8));
        break;
      case 1: {  // insert one byte
        const char c = rng.uniform_index(2) == 0
                           ? kSyntax[pick(sizeof kSyntax - 1)]
                           : static_cast<char>(rng.uniform_index(256));
        s.insert(pick(s.size() + 1), 1, c);
        break;
      }
      case 2:  // delete a span of up to 8 bytes
        if (!s.empty()) {
          const std::size_t at = pick(s.size());
          s.erase(at, 1 + pick(std::min<std::size_t>(8, s.size() - at)));
        }
        break;
      case 3:  // duplicate a span of up to 16 bytes elsewhere
        if (!s.empty()) {
          const std::size_t at = pick(s.size());
          const std::string span =
              s.substr(at, 1 + pick(std::min<std::size_t>(16, s.size() - at)));
          s.insert(pick(s.size() + 1), span);
        }
        break;
      default:  // truncate
        s.resize(pick(s.size() + 1));
        break;
    }
  }
  return s;
}

/// `input` with every byte outside printable ASCII escaped, for messages.
std::string printable(const std::string& input) {
  std::string out;
  for (const char c : input) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

/// Runs `parse` on `input`: true when it returns, false when it refuses the
/// input with std::invalid_argument. Any other exception is a test failure.
template <typename Parse>
bool accepted(const std::string& input, Parse parse) {
  try {
    parse(input);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << typeid(e).name() << ": " << e.what()
                  << "\n  input: " << printable(input);
    return false;
  }
}

void parse_job_value(const std::string& text) {
  (void)rpcg::service::parse_job(JsonValue::parse(text));
}

void parse_job_document(const std::string& text) {
  std::istringstream in(text);
  (void)rpcg::service::parse_job_lines(in);
}

void parse_matrix_market(const std::string& text) {
  std::istringstream in(text);
  (void)rpcg::read_matrix_market(in);
}

void parse_failure_list(const std::string& text) {
  (void)rpcg::service::parse_failure_list(text, 16);
}

void parse_matrix_id(const std::string& text) {
  (void)rpcg::service::parse_matrix_id(text);
}

/// How many mutants each parser accepted.
struct Accepted {
  int job = 0;
  int job_lines = 0;
  int matrix_market = 0;
  int failure_list = 0;
  int matrix_id = 0;
};

/// Mutates `input` kMutants times and runs every mutant through all five
/// parsers. The counts let a caller check that the mutants reached the
/// accepting paths of the parser the input was written for.
Accepted fuzz(std::uint64_t rng_seed, const std::string& input) {
  rpcg::Rng rng(rng_seed);
  Accepted n;
  for (int i = 0; i < kMutants; ++i) {
    const std::string m = mutate(rng, input);
    n.job += accepted(m, parse_job_value) ? 1 : 0;
    n.job_lines += accepted(m, parse_job_document) ? 1 : 0;
    n.matrix_market += accepted(m, parse_matrix_market) ? 1 : 0;
    n.failure_list += accepted(m, parse_failure_list) ? 1 : 0;
    n.matrix_id += accepted(m, parse_matrix_id) ? 1 : 0;
  }
  return n;
}

TEST(InputFuzz, JobLine) {
  ASSERT_TRUE(accepted(kJobLine, parse_job_value));
  const Accepted n = fuzz(0x51, kJobLine);
  EXPECT_GT(n.job, 0);
  EXPECT_GT(n.job_lines, 0);
}

TEST(InputFuzz, GeneralMatrixMarket) {
  ASSERT_TRUE(accepted(kGeneralMtx, parse_matrix_market));
  EXPECT_GT(fuzz(0x52, kGeneralMtx).matrix_market, 0);
}

TEST(InputFuzz, SymmetricMatrixMarket) {
  ASSERT_TRUE(accepted(kSymmetricMtx, parse_matrix_market));
  EXPECT_GT(fuzz(0x53, kSymmetricMtx).matrix_market, 0);
}

TEST(InputFuzz, FailureList) {
  ASSERT_TRUE(accepted(kFailureList, parse_failure_list));
  EXPECT_GT(fuzz(0x54, kFailureList).failure_list, 0);
}

TEST(InputFuzz, MatrixId) {
  ASSERT_TRUE(accepted(kMatrixId, parse_matrix_id));
  EXPECT_GT(fuzz(0x55, kMatrixId).matrix_id, 0);
}

}  // namespace
