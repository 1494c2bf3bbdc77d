// Unit tests for the CLI argument parser and the study command's fault /
// checkpoint option handling.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "fault/plan.hpp"
#include "store/shard_writer.hpp"
#include "util/cli.hpp"

namespace cloudrtt::util {
namespace {

ArgParser make_parser() {
  ArgParser parser{"prog", "test program"};
  parser.add_option("count", "5", "how many");
  parser.add_option("ratio", "0.5", "a ratio");
  parser.add_flag("verbose", "say more");
  parser.add_positional("target", "what to hit", "default-target");
  return parser;
}

TEST(ArgParser, DefaultsApply) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get("count"), "5");
  EXPECT_DOUBLE_EQ(parser.get_double("ratio"), 0.5);
  EXPECT_FALSE(parser.get_flag("verbose"));
  EXPECT_EQ(parser.get("target"), "default-target");
}

TEST(ArgParser, OptionsAndFlagsParse) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count", "9", "--verbose", "thing"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_int("count"), 9);
  EXPECT_TRUE(parser.get_flag("verbose"));
  EXPECT_EQ(parser.get("target"), "thing");
}

TEST(ArgParser, EqualsSyntax) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count=12", "--ratio=0.25"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_int("count"), 12);
  EXPECT_DOUBLE_EQ(parser.get_double("ratio"), 0.25);
}

TEST(ArgParser, UnknownOptionFails) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(parser.parse(3, argv));
  EXPECT_NE(parser.error().find("unknown option"), std::string::npos);
}

TEST(ArgParser, MissingValueFails) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count"};
  EXPECT_FALSE(parser.parse(2, argv));
  EXPECT_NE(parser.error().find("needs a value"), std::string::npos);
}

TEST(ArgParser, FlagWithValueFails) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--verbose=yes"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, RequiredPositionalEnforced) {
  ArgParser parser{"prog", "test"};
  parser.add_positional("must", "required");
  const char* missing[] = {"prog"};
  EXPECT_FALSE(parser.parse(1, missing));
  ArgParser parser2{"prog", "test"};
  parser2.add_positional("must", "required");
  const char* present[] = {"prog", "x"};
  EXPECT_TRUE(parser2.parse(2, present));
  EXPECT_EQ(parser2.get("must"), "x");
}

TEST(ArgParser, ExtraPositionalFails) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "a", "b"};
  EXPECT_FALSE(parser.parse(3, argv));
}

TEST(ArgParser, HelpMentionsEverything) {
  const ArgParser parser = make_parser();
  const std::string help = parser.help();
  for (const char* needle : {"--count", "--ratio", "--verbose", "target", "--help"}) {
    EXPECT_NE(help.find(needle), std::string::npos) << needle;
  }
}

TEST(ArgParser, GetUnknownThrows) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_THROW((void)parser.get("nope"), std::out_of_range);
  EXPECT_THROW((void)parser.get_flag("count"), std::out_of_range);
}

/// get_int() on `--count <value>` must throw std::invalid_argument whose
/// message names the option and quotes the value.
void expect_malformed_count(const char* value) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count", value};
  ASSERT_TRUE(parser.parse(3, argv));
  try {
    (void)parser.get_int("count");
    FAIL() << "get_int accepted '" << value << "'";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--count"), std::string::npos) << what;
    EXPECT_NE(what.find("'" + std::string{value} + "'"), std::string::npos)
        << what;
  }
}

TEST(ArgParser, IntegerRejectsLetters) { expect_malformed_count("abc"); }

TEST(ArgParser, IntegerRejectsTrailingGarbage) { expect_malformed_count("3x"); }

TEST(ArgParser, IntegerRejectsEmptyValue) { expect_malformed_count(""); }

TEST(ArgParser, CountRejectsNegativeAndOversizedValues) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count", "-1"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_int("count"), -1);
  EXPECT_THROW((void)parser.get_count("count"), std::invalid_argument);

  // 2^32 fits a size_t but would wrap to 0 in a uint32_t.
  ArgParser big = make_parser();
  const char* big_argv[] = {"prog", "--count=4294967296"};
  ASSERT_TRUE(big.parse(2, big_argv));
  EXPECT_EQ(big.get_count("count"), 4294967296u);
  EXPECT_THROW((void)big.get_count<std::uint32_t>("count"),
               std::invalid_argument);

  ArgParser zero = make_parser();
  const char* zero_argv[] = {"prog", "--count=0"};
  ASSERT_TRUE(zero.parse(2, zero_argv));
  EXPECT_EQ(zero.get_count<std::uint32_t>("count"), 0u);
}

// The study command's fault-injection options, exercised with the same
// parser shape cloudrtt_cli.cpp builds for `cloudrtt study`.
ArgParser make_study_parser() {
  ArgParser parser{"cloudrtt study", "run the measurement study"};
  parser.add_option("fault-profile", "none", "fault intensity");
  parser.add_option("fault-seed", "1337", "fault schedule seed");
  parser.add_option("checkpoint-dir", "", "per-day checkpoint directory");
  parser.add_flag("resume", "resume from checkpoint-dir");
  return parser;
}

TEST(StudyCliOptions, FaultDefaultsAreOff) {
  ArgParser parser = make_study_parser();
  const char* argv[] = {"cloudrtt"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get("fault-profile"), "none");
  EXPECT_EQ(parser.get_int("fault-seed"), 1337);
  EXPECT_TRUE(parser.get("checkpoint-dir").empty());
  EXPECT_FALSE(parser.get_flag("resume"));
}

TEST(StudyCliOptions, FaultAndCheckpointFlagsParse) {
  ArgParser parser = make_study_parser();
  const char* argv[] = {"cloudrtt", "--fault-profile", "harsh",
                        "--fault-seed=99", "--checkpoint-dir", "/tmp/ck",
                        "--resume"};
  ASSERT_TRUE(parser.parse(7, argv));
  EXPECT_EQ(parser.get("fault-profile"), "harsh");
  EXPECT_EQ(parser.get_int("fault-seed"), 99);
  EXPECT_EQ(parser.get("checkpoint-dir"), "/tmp/ck");
  EXPECT_TRUE(parser.get_flag("resume"));
}

// --threads is read the way cloudrtt_cli.cpp reads it: one store lane per
// thread, so a value above the lane cap is refused naming the flag.
TEST(StudyCliOptions, ThreadsAboveTheLaneCapAreRefused) {
  ArgParser parser{"cloudrtt study", "run the measurement study"};
  parser.add_option("threads", "1", "worker threads");
  const std::string at_cap = "--threads=" + std::to_string(store::kMaxLanes);
  const char* ok_argv[] = {"cloudrtt", at_cap.c_str()};
  ASSERT_TRUE(parser.parse(2, ok_argv));
  EXPECT_EQ(parser.get_count<unsigned>("threads", store::kMaxLanes),
            store::kMaxLanes);

  ArgParser over{"cloudrtt study", "run the measurement study"};
  over.add_option("threads", "1", "worker threads");
  const std::string above =
      "--threads=" + std::to_string(store::kMaxLanes + 1);
  const char* over_argv[] = {"cloudrtt", above.c_str()};
  ASSERT_TRUE(over.parse(2, over_argv));
  try {
    (void)over.get_count<unsigned>("threads", store::kMaxLanes);
    FAIL() << "a --threads above the lane cap was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--threads"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(store::kMaxLanes)), std::string::npos)
        << what;
  }
}

TEST(StudyCliOptions, EveryProfileNameRoundTrips) {
  // The CLI validates --fault-profile with fault::profile_from_string; the
  // accepted spellings must stay in sync with the enum.
  EXPECT_EQ(fault::profile_from_string("none"), fault::FaultProfile::None);
  EXPECT_EQ(fault::profile_from_string("mild"), fault::FaultProfile::Mild);
  EXPECT_EQ(fault::profile_from_string("harsh"), fault::FaultProfile::Harsh);
  EXPECT_FALSE(fault::profile_from_string("spicy").has_value());
}

}  // namespace
}  // namespace cloudrtt::util
