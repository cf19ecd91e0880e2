// Edge cases of the enbound CLI argument parser: a trailing value-taking
// flag must not read past the end of argv (the seed binary dereferenced
// argv[argc], i.e. nullptr), and malformed values must name the offending
// flag instead of crashing out of std::stod.
#include "cli/args.hpp"

#include <gtest/gtest.h>

namespace enb::cli {
namespace {

TEST(CliArgs, HappyPathFillsEveryField) {
  const Args args = parse_args(
      {"sweep", "adder.bench", "--eps-lo", "0.002", "--eps-hi", "0.3",
       "--points", "7", "--delta", "0.05", "--map", "4", "--csv", "out.csv",
       "--eps", "0.02", "--leakage", "0.25", "--couple-leakage", "--threads",
       "8", "--json", "out.json", "-o", "out.bench", "--stream"});
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_TRUE(args.stream);
  EXPECT_EQ(args.positional, (std::vector<std::string>{"sweep", "adder.bench"}));
  EXPECT_DOUBLE_EQ(args.eps_lo, 0.002);
  EXPECT_DOUBLE_EQ(args.eps_hi, 0.3);
  EXPECT_EQ(args.points, 7);
  EXPECT_DOUBLE_EQ(args.delta, 0.05);
  EXPECT_EQ(args.map_fanin, 4);
  EXPECT_EQ(args.csv, "out.csv");
  EXPECT_DOUBLE_EQ(args.eps, 0.02);
  EXPECT_DOUBLE_EQ(args.leakage, 0.25);
  EXPECT_TRUE(args.couple_leakage);
  EXPECT_EQ(args.threads, 8u);
  EXPECT_EQ(args.json, "out.json");
  EXPECT_EQ(args.out, "out.bench");
}

TEST(CliArgs, StreamDefaultsOff) {
  const Args args = parse_args({"batch", "jobs.manifest"});
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_FALSE(args.stream);
}

TEST(CliArgs, TraceTakesAPath) {
  const Args defaults = parse_args({"batch", "jobs.manifest"});
  ASSERT_TRUE(defaults.ok()) << defaults.error;
  EXPECT_TRUE(defaults.trace.empty());

  const Args args =
      parse_args({"batch", "jobs.manifest", "--trace", "run.trace.json"});
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_EQ(args.trace, "run.trace.json");

  const Args trailing = parse_args({"batch", "jobs.manifest", "--trace"});
  EXPECT_FALSE(trailing.ok());
  EXPECT_NE(trailing.error.find("--trace"), std::string::npos);
}

TEST(CliArgs, FaultCampaignScaleFlagsParse) {
  const Args defaults = parse_args({"faultsim", "rca8"});
  ASSERT_TRUE(defaults.ok()) << defaults.error;
  EXPECT_FALSE(defaults.drop);
  EXPECT_EQ(defaults.lanes, 64u);
  EXPECT_EQ(defaults.sample, 0u);

  const Args args = parse_args(
      {"faultsim", "rca8", "--drop", "--lanes", "256", "--sample", "100"});
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_TRUE(args.drop);
  EXPECT_EQ(args.lanes, 256u);
  EXPECT_EQ(args.sample, 100u);

  // Value validation (64/128/256/512) is the command's job; the parser only
  // rejects non-numeric input.
  const Args bad = parse_args({"faultsim", "rca8", "--lanes", "wide"});
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("--lanes"), std::string::npos);
}

TEST(CliArgs, TrailingValueFlagReportsInsteadOfOverreading) {
  for (const char* flag :
       {"--eps", "--delta", "--leakage", "--eps-lo", "--eps-hi", "--map",
        "--points", "--threads", "-o", "--csv", "--json"}) {
    const Args args = parse_args({"analyze", "c.bench", flag});
    EXPECT_FALSE(args.ok()) << flag;
    EXPECT_NE(args.error.find(flag), std::string::npos)
        << "error should name the offending flag: " << args.error;
    EXPECT_NE(args.error.find("requires a value"), std::string::npos)
        << args.error;
  }
}

TEST(CliArgs, NonNumericValueNamesFlagAndValue) {
  const Args args = parse_args({"analyze", "c.bench", "--eps", "abc"});
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("--eps"), std::string::npos) << args.error;
  EXPECT_NE(args.error.find("abc"), std::string::npos) << args.error;
}

TEST(CliArgs, PartialNumericValueRejected) {
  // "0.1x" must not silently parse as 0.1.
  const Args args = parse_args({"analyze", "c.bench", "--delta", "0.1x"});
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("--delta"), std::string::npos) << args.error;
}

TEST(CliArgs, NonIntegerCountRejected) {
  const Args points = parse_args({"sweep", "c.bench", "--points", "3.5"});
  EXPECT_FALSE(points.ok());
  const Args map = parse_args({"analyze", "c.bench", "--map", "two"});
  EXPECT_FALSE(map.ok());
}

TEST(CliArgs, MapAcceptsZeroOrFaninTwoAndUp) {
  EXPECT_EQ(parse_args({"profile", "c17", "--map", "0"}).map_fanin, 0);
  EXPECT_EQ(parse_args({"profile", "c17", "--map", "2"}).map_fanin, 2);
  // Negative values and fanin 1 are argument errors naming the flag and
  // the rule, never a silent unmapped run or a late mapping failure.
  for (const char* value : {"-3", "-1", "1"}) {
    const Args args = parse_args({"profile", "c17", "--map", value});
    ASSERT_FALSE(args.ok()) << value;
    EXPECT_NE(args.error.find("--map"), std::string::npos) << args.error;
    EXPECT_NE(args.error.find(">= 2"), std::string::npos) << args.error;
  }
  EXPECT_FALSE(
      parse_args({"serve", "--socket", "s.sock", "--map", "-1"}).ok());
}

TEST(CliArgs, NegativeThreadsRejected) {
  const Args args = parse_args({"batch", "jobs.txt", "--threads", "-2"});
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("--threads"), std::string::npos) << args.error;
}

TEST(CliArgs, UnknownOptionRejected) {
  const Args args = parse_args({"analyze", "c.bench", "--epsilon", "0.1"});
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("--epsilon"), std::string::npos) << args.error;
}

TEST(CliArgs, EmptyArgvIsOk) {
  const Args args = parse_args({});
  EXPECT_TRUE(args.ok());
  EXPECT_TRUE(args.positional.empty());
}

TEST(CliArgs, ServeFlagsParse) {
  const Args args = parse_args({"serve", "--socket", "/tmp/enb.sock",
                                "--max-handles", "8", "--max-cache", "128",
                                "--threads", "2"});
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_EQ(args.socket, "/tmp/enb.sock");
  EXPECT_EQ(args.max_handles, 8);
  EXPECT_EQ(args.max_cache, 128);
  EXPECT_EQ(args.threads, 2u);
}

TEST(CliArgs, ServeCapacitiesDefaultAndRejectNonPositive) {
  const Args defaults = parse_args({"serve", "--socket", "s.sock"});
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.max_handles, 64);
  EXPECT_EQ(defaults.max_cache, 4096);

  const Args handles = parse_args({"serve", "--max-handles", "0"});
  ASSERT_FALSE(handles.ok());
  EXPECT_NE(handles.error.find("--max-handles"), std::string::npos)
      << handles.error;
  const Args cache = parse_args({"serve", "--max-cache", "-5"});
  ASSERT_FALSE(cache.ok());
  EXPECT_NE(cache.error.find("--max-cache"), std::string::npos)
      << cache.error;
}

TEST(CliArgs, FaultsimFlagsParseAndDefault) {
  const Args defaults = parse_args({"faultsim", "c17"});
  ASSERT_TRUE(defaults.ok()) << defaults.error;
  EXPECT_EQ(defaults.patterns, 256u);
  EXPECT_FALSE(defaults.exhaustive);
  EXPECT_EQ(defaults.seed, 0xFA17u);
  EXPECT_EQ(defaults.bundle_width, 1);
  EXPECT_FALSE(defaults.no_collapse);
  EXPECT_FALSE(defaults.check_scalar);
  EXPECT_TRUE(defaults.golden.empty());
  EXPECT_TRUE(defaults.ans.empty());

  const Args args = parse_args(
      {"faultsim", "nmr.bench", "--golden", "base.bench", "--patterns", "500",
       "--seed", "42", "--bundle-width", "5", "--exhaustive", "--no-collapse",
       "--check-scalar", "--ans", "out.ans"});
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_EQ(args.patterns, 500u);
  EXPECT_EQ(args.seed, 42u);
  EXPECT_EQ(args.bundle_width, 5);
  EXPECT_TRUE(args.exhaustive);
  EXPECT_TRUE(args.no_collapse);
  EXPECT_TRUE(args.check_scalar);
  EXPECT_EQ(args.golden, "base.bench");
  EXPECT_EQ(args.ans, "out.ans");
}

TEST(CliArgs, FaultsimNumericFlagsRejectGarbageAndTrailing) {
  const Args bad = parse_args({"faultsim", "c17", "--patterns", "many"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("--patterns"), std::string::npos) << bad.error;
  const Args negative = parse_args({"faultsim", "c17", "--seed", "-3"});
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.error.find("--seed"), std::string::npos)
      << negative.error;
  const Args trailing = parse_args({"faultsim", "c17", "--ans"});
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.error.find("--ans"), std::string::npos)
      << trailing.error;
}

TEST(CliArgs, TrailingSocketFlagRejected) {
  const Args args = parse_args({"client", "--socket"});
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("--socket"), std::string::npos) << args.error;
}

TEST(CliArgs, ClientVerbTokensStayPositional) {
  // Manifest-style key=value tokens must pass through as positionals for
  // the client analyze verb.
  const Args args = parse_args({"client", "--socket", "s.sock", "analyze",
                                "mult4", "kind=energy-bound", "eps=0.02"});
  ASSERT_TRUE(args.ok()) << args.error;
  ASSERT_EQ(args.positional.size(), 5u);
  EXPECT_EQ(args.positional[2], "mult4");
  EXPECT_EQ(args.positional[3], "kind=energy-bound");
  EXPECT_EQ(args.positional[4], "eps=0.02");
}

TEST(CliArgs, LintFlagsParse) {
  const Args args =
      parse_args({"lint", "c17.bench", "--json", "lint.json"});
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_EQ(args.positional,
            (std::vector<std::string>{"lint", "c17.bench"}));
  EXPECT_EQ(args.json, "lint.json");

  const Args trailing = parse_args({"lint", "c17.bench", "--json"});
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.error.find("--json"), std::string::npos)
      << trailing.error;
}

TEST(CliArgs, HardenFlagsParseAndDefault) {
  const Args defaults = parse_args({"harden", "c17"});
  ASSERT_TRUE(defaults.ok()) << defaults.error;
  EXPECT_TRUE(defaults.style.empty());
  EXPECT_TRUE(defaults.granularity.empty());
  EXPECT_EQ(defaults.top_k, 0u);
  EXPECT_TRUE(defaults.emit.empty());

  const Args args = parse_args({"harden", "c17", "--style", "selective",
                                "--granularity", "cone", "--top-k", "2",
                                "--emit", "winners"});
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_EQ(args.style, "selective");
  EXPECT_EQ(args.granularity, "cone");
  EXPECT_EQ(args.top_k, 2u);
  EXPECT_EQ(args.emit, "winners");

  // Style/granularity value validation is the command's job; the parser only
  // rejects missing and non-numeric values.
  for (const char* flag : {"--style", "--granularity", "--top-k", "--emit"}) {
    const Args trailing = parse_args({"harden", "c17", flag});
    EXPECT_FALSE(trailing.ok()) << flag;
    EXPECT_NE(trailing.error.find(flag), std::string::npos) << trailing.error;
  }
  const Args bad = parse_args({"harden", "c17", "--top-k", "many"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("--top-k"), std::string::npos) << bad.error;
}

TEST(CliArgs, KnownCommandVocabularyCoversEverySubcommand) {
  for (const char* command :
       {"profile", "analyze", "sweep", "batch", "faultsim", "cec", "lint",
        "harden", "serve", "client", "gen", "list"}) {
    EXPECT_TRUE(is_known_command(command)) << command;
  }
  EXPECT_FALSE(is_known_command("frobnicate"));
  EXPECT_FALSE(is_known_command(""));
  EXPECT_FALSE(is_known_command("LINT"));  // commands are case-sensitive
  EXPECT_EQ(known_commands().size(), 12u);
}

}  // namespace
}  // namespace enb::cli
