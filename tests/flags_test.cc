#include "util/flags.h"

#include <gtest/gtest.h>

namespace hignn {
namespace {

CommandLine Parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> args = {"hignn"};
  args.insert(args.end(), argv.begin(), argv.end());
  return CommandLine::Parse(static_cast<int>(args.size()), args.data())
      .ValueOrDie();
}

TEST(FlagsTest, CommandAndPositionals) {
  const CommandLine cl = Parse({"fit", "a.tsv", "b.tsv"});
  EXPECT_EQ(cl.command(), "fit");
  ASSERT_EQ(cl.args().size(), 2u);
  EXPECT_EQ(cl.args()[0], "a.tsv");
  EXPECT_EQ(cl.args()[1], "b.tsv");
}

TEST(FlagsTest, EqualsAndSpaceSyntax) {
  const CommandLine cl =
      Parse({"fit", "--levels=3", "--dim", "32", "--out", "m.hgnn"});
  EXPECT_EQ(cl.GetInt("levels", 0).ValueOrDie(), 3);
  EXPECT_EQ(cl.GetInt("dim", 0).ValueOrDie(), 32);
  EXPECT_EQ(cl.GetString("out"), "m.hgnn");
}

TEST(FlagsTest, ValuelessSwitches) {
  const CommandLine cl = Parse({"fit", "--verbose", "--ch", "--alpha", "5"});
  EXPECT_TRUE(cl.GetBool("verbose"));
  EXPECT_TRUE(cl.GetBool("ch"));
  EXPECT_FALSE(cl.GetBool("missing"));
  EXPECT_DOUBLE_EQ(cl.GetDouble("alpha", 0).ValueOrDie(), 5.0);
}

TEST(FlagsTest, SwitchFollowedByFlagDoesNotEatIt) {
  const CommandLine cl = Parse({"fit", "--verbose", "--levels=2"});
  EXPECT_TRUE(cl.GetBool("verbose"));
  EXPECT_EQ(cl.GetInt("levels", 0).ValueOrDie(), 2);
}

TEST(FlagsTest, ExplicitBoolValues) {
  const CommandLine cl = Parse({"x", "--a=true", "--b=false", "--c=1"});
  EXPECT_TRUE(cl.GetBool("a"));
  EXPECT_FALSE(cl.GetBool("b"));
  EXPECT_TRUE(cl.GetBool("c"));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const CommandLine cl = Parse({"info"});
  EXPECT_EQ(cl.GetString("model", "fallback"), "fallback");
  EXPECT_EQ(cl.GetInt("k", 42).ValueOrDie(), 42);
  EXPECT_DOUBLE_EQ(cl.GetDouble("x", 1.5).ValueOrDie(), 1.5);
}

TEST(FlagsTest, MalformedNumbersAreErrors) {
  const CommandLine cl = Parse({"fit", "--levels=abc", "--lr=3e-3"});
  EXPECT_FALSE(cl.GetInt("levels", 0).ok());
  EXPECT_DOUBLE_EQ(cl.GetDouble("lr", 0).ValueOrDie(), 3e-3);
}

TEST(FlagsTest, RejectsMalformedFlags) {
  std::vector<const char*> args = {"hignn", "fit", "--"};
  EXPECT_FALSE(
      CommandLine::Parse(static_cast<int>(args.size()), args.data()).ok());
}

}  // namespace
}  // namespace hignn
