#include "util/options.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace rpcg {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, EqualsForm) {
  const Options o = parse({"--nodes=128", "--rtol=1e-8"});
  EXPECT_EQ(o.get_int("nodes", 0), 128);
  EXPECT_DOUBLE_EQ(o.get_double("rtol", 0.0), 1e-8);
}

TEST(Options, SpaceForm) {
  const Options o = parse({"--name", "hello", "--count", "7"});
  EXPECT_EQ(o.get_string("name", ""), "hello");
  EXPECT_EQ(o.get_int("count", 0), 7);
}

TEST(Options, BareBooleanFlag) {
  const Options o = parse({"--verbose", "--x=1"});
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_FALSE(o.get_bool("quiet", false));
}

TEST(Options, Fallbacks) {
  const Options o = parse({});
  EXPECT_EQ(o.get_int("missing", 42), 42);
  EXPECT_EQ(o.get_string("missing", "d"), "d");
  EXPECT_FALSE(o.has("missing"));
}

TEST(Options, IntList) {
  const Options o = parse({"--phis=1,3,8"});
  EXPECT_EQ(o.get_int_list("phis", {}), (std::vector<long>{1, 3, 8}));
  EXPECT_EQ(o.get_int_list("other", {2}), (std::vector<long>{2}));
}

// A flag outside the valid list throws with its name and the list; flags
// in it, in either form, pass.
TEST(Options, RequireKnownNamesTheUnknownFlag) {
  const std::vector<std::string> valid{"solver", "retry"};
  EXPECT_NO_THROW(parse({"--solver=esr", "--retry", "3"}).require_known(valid));
  EXPECT_NO_THROW(parse({}).require_known(valid));
  try {
    parse({"--solver", "pcg", "--sovler", "esr"}).require_known(valid);
    FAIL() << "--sovler was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown flag --sovler (valid flags: --solver --retry)");
  }
  EXPECT_THROW(parse({"--verbose"}).require_known(valid),
               std::invalid_argument);
}

TEST(Options, MalformedThrows) {
  EXPECT_THROW(parse({"positional"}), std::invalid_argument);
}

// strtol parses a prefix; an integer option must consume its whole value.
TEST(Options, IntRejectsWhatItCannotParseWhole) {
  for (const char* bad : {"--phi=2.9", "--phi=2x", "--phi=", "--phi=x2",
                          "--phi=99999999999999999999"}) {
    const Options o = parse({bad});
    EXPECT_THROW((void)o.get_int("phi", 0), std::invalid_argument) << bad;
  }
  EXPECT_THROW((void)parse({"--phi", "2x"}).get_int("phi", 0),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--phis=1,3.5,8"}).get_int_list("phis", {}),
               std::invalid_argument);
  EXPECT_EQ(parse({"--phi=-3"}).get_int("phi", 0), -3);
}

}  // namespace
}  // namespace rpcg
