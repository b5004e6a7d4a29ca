#include "common/args.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace pe {
namespace {

ArgParser Parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, SubcommandIsTheFirstPositional) {
  const auto args = Parse({"simulate", "--rate", "5"});
  ASSERT_TRUE(args.Subcommand().has_value());
  EXPECT_EQ(*args.Subcommand(), "simulate");
}

TEST(ArgParser, StrayPositionalIsRejectedByName) {
  // "plan bert" must not plan the default --model: the stray token is an
  // error naming it, wherever it appears.
  try {
    (void)Parse({"plan", "bert"});
    ADD_FAILURE() << "a second positional token was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unexpected argument 'bert'");
  }
  EXPECT_THROW((void)Parse({"plan", "--model", "bert", "extra"}),
               std::invalid_argument);
  EXPECT_THROW((void)Parse({"plan", "--", "bert"}), std::invalid_argument);
  // A token an option consumes is not positional.
  EXPECT_EQ(Parse({"plan", "--model", "bert"}).Subcommand(), "plan");
}

TEST(ArgParser, NoSubcommand) {
  const auto args = Parse({"--model", "resnet"});
  EXPECT_FALSE(args.Subcommand().has_value());
}

TEST(ArgParser, SpaceSeparatedValue) {
  const auto args = Parse({"plan", "--model", "bert"});
  EXPECT_EQ(args.GetString("model", ""), "bert");
}

TEST(ArgParser, EqualsSeparatedValue) {
  const auto args = Parse({"plan", "--model=conformer"});
  EXPECT_EQ(args.GetString("model", ""), "conformer");
}

TEST(ArgParser, BareFlag) {
  const auto args = Parse({"sweep", "--csv"});
  EXPECT_TRUE(args.HasFlag("csv"));
  EXPECT_FALSE(args.HasFlag("json"));
}

TEST(ArgParser, FlagFollowedByOption) {
  // "--csv --rate 5": csv must not consume "--rate" as its value.
  const auto args = Parse({"x", "--csv", "--rate", "5"});
  EXPECT_TRUE(args.HasFlag("csv"));
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0.0), 5.0);
}

TEST(ArgParser, NumericParsing) {
  const auto args = Parse({"x", "--rate", "123.5", "--queries", "4000"});
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0.0), 123.5);
  EXPECT_EQ(args.GetInt("queries", 0), 4000);
  EXPECT_DOUBLE_EQ(args.GetDouble("missing", 7.5), 7.5);
  EXPECT_EQ(args.GetInt("missing", -2), -2);
}

TEST(ArgParser, MalformedNumbersThrow) {
  const auto args = Parse({"x", "--rate", "fast", "--queries", "12x"});
  EXPECT_THROW(args.GetDouble("rate", 0.0), std::invalid_argument);
  EXPECT_THROW(args.GetInt("queries", 0), std::invalid_argument);
}

TEST(ArgParser, UnknownKeysReported) {
  const auto args = Parse({"x", "--model", "resnet", "--typo", "1"});
  const auto unknown = args.UnknownKeys({"model", "rate"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(ArgParser, NegativeNumberSpaceSeparated) {
  const auto args = Parse({"x", "--rate", "-5", "--offset", "-12"});
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0.0), -5.0);
  EXPECT_EQ(args.GetInt("offset", 0), -12);
}

TEST(ArgParser, NegativeNumberEqualsSeparated) {
  const auto args = Parse({"x", "--rate=-3.5", "--offset=-7"});
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0.0), -3.5);
  EXPECT_EQ(args.GetInt("offset", 0), -7);
}

TEST(ArgParser, NegativeFractionValue) {
  const auto args = Parse({"x", "--bias", "-.5"});
  EXPECT_DOUBLE_EQ(args.GetDouble("bias", 0.0), -0.5);
}

TEST(ArgParser, ShortHelpFlag) {
  const auto args = Parse({"-h"});
  EXPECT_TRUE(args.HasFlag("h"));
  EXPECT_FALSE(args.Subcommand().has_value());
}

TEST(ArgParser, LongHelpFlag) {
  const auto args = Parse({"--help"});
  EXPECT_TRUE(args.HasFlag("help"));
  EXPECT_FALSE(args.Subcommand().has_value());
}

TEST(ArgParser, ShortFlagNeverConsumesValue) {
  const auto args = Parse({"-h", "value"});
  EXPECT_TRUE(args.HasFlag("h"));
  EXPECT_EQ(args.GetString("h", "sentinel"), "");
  EXPECT_EQ(args.Subcommand(), "value");
}

TEST(ArgParser, DashPrefixedStringValue) {
  // Only single-letter "-x" tokens are short flags; longer dash-prefixed
  // tokens are plain values, so "--rate -inf" keeps old-parser behavior.
  const auto args = Parse({"x", "--rate", "-inf", "--tag", "-mytag"});
  EXPECT_EQ(args.GetString("tag", ""), "-mytag");
  EXPECT_FALSE(args.HasFlag("mytag"));
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0.0),
                   -std::numeric_limits<double>::infinity());
}

TEST(ArgParser, UndeclaredFlagBeforePositionalConsumesIt) {
  // Documented trap: without a flag declaration ArgParser cannot know
  // "csv" takes no value, so a flag placed before the subcommand
  // swallows it.  Callers must declare flags or order the subcommand
  // first ("sweep --csv").
  const auto args = Parse({"--csv", "sweep"});
  EXPECT_TRUE(args.HasFlag("csv"));
  EXPECT_EQ(args.GetString("csv", ""), "sweep");
  EXPECT_FALSE(args.Subcommand().has_value());
}

TEST(ArgParser, DeclaredFlagNeverConsumesValue) {
  const std::vector<const char*> argv = {"prog", "--csv", "sweep", "--rate",
                                         "9"};
  const ArgParser args(static_cast<int>(argv.size()), argv.data(), {"csv"});
  EXPECT_TRUE(args.HasFlag("csv"));
  EXPECT_EQ(args.GetString("csv", "sentinel"), "");
  ASSERT_TRUE(args.Subcommand().has_value());
  EXPECT_EQ(*args.Subcommand(), "sweep");
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0.0), 9.0);
}

TEST(ArgParser, MalformedOptionTokenBecomesValue) {
  // "--5" is not a valid option name, so it is consumed as the literal
  // value of --rate and rejected explicitly by the numeric getter --
  // rather than silently turning both tokens into bare flags.
  const auto args = Parse({"x", "--rate", "--5"});
  EXPECT_EQ(args.GetString("rate", ""), "--5");
  EXPECT_THROW(args.GetDouble("rate", 0.0), std::invalid_argument);
  EXPECT_FALSE(args.HasFlag("5"));
}

TEST(ArgParser, BareFlagRejectedByNumericGetters) {
  const auto args = Parse({"x", "--rate", "--csv"});
  EXPECT_TRUE(args.HasFlag("rate"));
  EXPECT_THROW(args.GetDouble("rate", 0.0), std::invalid_argument);
  EXPECT_THROW(args.GetInt("rate", 0), std::invalid_argument);
}

TEST(ArgParser, EmptyEqualsValueRejectedByNumericGetters) {
  const auto args = Parse({"x", "--rate="});
  EXPECT_EQ(args.GetString("rate", "sentinel"), "");
  EXPECT_THROW(args.GetDouble("rate", 0.0), std::invalid_argument);
}

TEST(ArgParser, DoubleDashEndsOptionParsing) {
  const auto args = Parse({"--csv", "--", "--not-an-option"});
  EXPECT_TRUE(args.HasFlag("csv"));
  EXPECT_FALSE(args.HasFlag("not-an-option"));
  EXPECT_EQ(args.Subcommand(), "--not-an-option");
  const auto short_form = Parse({"--", "-x"});
  EXPECT_FALSE(short_form.HasFlag("x"));
  EXPECT_EQ(short_form.Subcommand(), "-x");
}

TEST(ArgParser, NegativeNumberAsPositional) {
  const auto args = Parse({"-5"});
  EXPECT_EQ(args.Subcommand(), "-5");
}

TEST(ArgParser, SpellingEchoesOriginalToken) {
  const auto args = Parse({"x", "--q", "5", "-z", "--rate=1"});
  EXPECT_EQ(args.Spelling("q"), "--q");   // single-letter long option
  EXPECT_EQ(args.Spelling("z"), "-z");    // short flag
  EXPECT_EQ(args.Spelling("rate"), "--rate");
  EXPECT_EQ(args.Spelling("never-given"), "--never-given");
}

TEST(ArgParser, EmptyArgv) {
  const char* argv[] = {"prog"};
  ArgParser args(1, argv);
  EXPECT_FALSE(args.Subcommand().has_value());
}

}  // namespace
}  // namespace pe
