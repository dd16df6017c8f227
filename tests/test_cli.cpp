// Tests for the command-line argument parser used by the driver tools.
#include <gtest/gtest.h>

#include "src/util/cli.hpp"

namespace vapro::util {
namespace {

CliArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
  auto args = parse({"--app=CG", "--ranks=64"});
  EXPECT_EQ(args.get("app", ""), "CG");
  EXPECT_EQ(args.get_int("ranks", 0), 64);
}

TEST(Cli, SpaceForm) {
  auto args = parse({"--app", "SP", "--window", "0.5"});
  EXPECT_EQ(args.get("app", ""), "SP");
  EXPECT_DOUBLE_EQ(args.get_double("window", 0), 0.5);
}

TEST(Cli, BooleanSwitches) {
  auto args = parse({"--ansi", "--list"});
  EXPECT_TRUE(args.get_bool("ansi"));
  EXPECT_TRUE(args.get_bool("list"));
  EXPECT_FALSE(args.get_bool("missing"));
  EXPECT_TRUE(args.get_bool("missing", true));
}

TEST(Cli, RepeatableFlags) {
  auto args = parse({"--noise=cpu:1:0:1:1", "--noise=mem:2:0:1:3"});
  auto noises = args.get_all("noise");
  ASSERT_EQ(noises.size(), 2u);
  EXPECT_EQ(noises[0], "cpu:1:0:1:1");
  EXPECT_EQ(noises[1], "mem:2:0:1:3");
}

TEST(Cli, PositionalsCollected) {
  auto args = parse({"input.txt", "--flag=1", "other"});
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "input.txt");
}

TEST(Cli, FallbacksWhenAbsent) {
  auto args = parse({});
  EXPECT_EQ(args.get("x", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(args.has("x"));
}

TEST(Cli, StrictParseTakesOnlyWholeValues) {
  auto args = parse({"--ranks=8", "--wrapped=4294967304", "--suffix=8x",
                     "--window=0.25", "--unit=0.25s", "--empty=",
                     "--low=-2147483648", "--under=-2147483649"});
  int n = -1;
  EXPECT_TRUE(args.parse_int("ranks", 1, &n));
  EXPECT_EQ(n, 8);
  EXPECT_TRUE(args.parse_int("absent", 3, &n));
  EXPECT_EQ(n, 3);
  EXPECT_TRUE(args.parse_int("low", 3, &n));
  EXPECT_EQ(n, -2147483647 - 1);
  n = 5;
  EXPECT_FALSE(args.parse_int("wrapped", 1, &n));
  EXPECT_FALSE(args.parse_int("under", 1, &n));
  EXPECT_FALSE(args.parse_int("suffix", 1, &n));
  EXPECT_FALSE(args.parse_int("empty", 1, &n));
  EXPECT_FALSE(args.parse_int("window", 1, &n));
  EXPECT_EQ(n, 5) << "a refused value leaves *out alone";
  double d = -1.0;
  EXPECT_TRUE(args.parse_double("window", 1.0, &d));
  EXPECT_EQ(d, 0.25);
  EXPECT_TRUE(args.parse_double("absent", 2.5, &d));
  EXPECT_EQ(d, 2.5);
  EXPECT_FALSE(args.parse_double("unit", 1.0, &d));
  EXPECT_FALSE(args.parse_double("empty", 1.0, &d));
  EXPECT_EQ(d, 2.5);
}

TEST(Cli, SplitFields) {
  auto fields = split("cpu:1:0.5:inf:2.0", ':');
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0], "cpu");
  EXPECT_EQ(fields[3], "inf");
  // Empty fields survive.
  EXPECT_EQ(split("a::b", ':').size(), 3u);
}

}  // namespace
}  // namespace vapro::util
