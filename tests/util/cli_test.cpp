#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace decycle::util {
namespace {

Args make_args(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesKeyValue) {
  const Args args = make_args({"--n=100", "--name=ring"});
  EXPECT_EQ(args.get_u64("n", 0), 100u);
  EXPECT_EQ(args.get_string("name", ""), "ring");
}

TEST(Args, BareFlagIsTrue) {
  const Args args = make_args({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Args, FallbacksWhenMissing) {
  const Args args = make_args({});
  EXPECT_EQ(args.get_u64("n", 7), 7u);
  EXPECT_EQ(args.get_i64("delta", -3), -3);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.25), 0.25);
  EXPECT_FALSE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_string("s", "dflt"), "dflt");
}

TEST(Args, ParsesNumbers) {
  const Args args = make_args({"--a=-12", "--b=3.5", "--c=0"});
  EXPECT_EQ(args.get_i64("a", 0), -12);
  EXPECT_DOUBLE_EQ(args.get_double("b", 0), 3.5);
  EXPECT_FALSE(args.get_bool("c", true));
}

TEST(Args, BooleanSpellings) {
  const Args args = make_args({"--a=true", "--b=off", "--c=yes", "--d=0"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(Args, RejectsMalformedArgument) {
  EXPECT_THROW(make_args({"n=5"}), CheckError);
}

TEST(Args, SpaceSeparatedValueWhenNextTokenIsNotAKey) {
  const Args args = make_args({"--socket", "/tmp/x.sock", "--verbose", "--delta", "-3", "--n=4"});
  EXPECT_EQ(args.get_string("socket", ""), "/tmp/x.sock");
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_i64("delta", 0), -3);
  EXPECT_EQ(args.get_u64("n", 0), 4u);
  EXPECT_THROW(make_args({"--n=4", "n=5"}), CheckError);
}

TEST(Args, RejectsBadNumbers) {
  const Args args = make_args({"--n=abc", "--e=1.5x"});
  EXPECT_THROW((void)args.get_u64("n", 0), CheckError);
  EXPECT_THROW((void)args.get_double("e", 0), CheckError);
}

TEST(Args, RejectsBadBoolean) {
  const Args args = make_args({"--b=maybe"});
  EXPECT_THROW((void)args.get_bool("b", false), CheckError);
}

TEST(Args, UnusedTracksUnreadKeys) {
  const Args args = make_args({"--used=1", "--typo=2"});
  (void)args.get_u64("used", 0);
  const auto leftovers = args.unused();
  ASSERT_EQ(leftovers.size(), 1u);
  EXPECT_EQ(leftovers[0], "typo");
  EXPECT_THROW(args.reject_unknown(), CheckError);
}

TEST(Args, RejectUnknownPassesWhenAllRead) {
  const Args args = make_args({"--a=1"});
  (void)args.get_u64("a", 0);
  EXPECT_NO_THROW(args.reject_unknown());
}

TEST(Args, HasChecksPresence) {
  const Args args = make_args({"--x=1"});
  EXPECT_TRUE(args.has("x"));
  EXPECT_FALSE(args.has("y"));
}

TEST(Args, RejectsDuplicateKeys) {
  // A silently dropped repeat (--k=4 --k=5 keeping only k=4) would run a
  // different workload than the command line reads.
  EXPECT_THROW(make_args({"--k=4", "--k=5"}), CheckError);
  EXPECT_THROW(make_args({"--flag", "--flag"}), CheckError);
}

TEST(Args, TakeUnconsumedForwardsAndConsumes) {
  const Args args = make_args({"--out=lab.jsonl", "--family=cycle,planted", "--k=3..7:2"});
  (void)args.get_string("out", "");  // the binary's own flag
  const auto forwarded = args.take_unconsumed();
  ASSERT_EQ(forwarded.size(), 2u);  // key order: family before k
  EXPECT_EQ(forwarded[0].first, "family");
  EXPECT_EQ(forwarded[0].second, "cycle,planted");
  EXPECT_EQ(forwarded[1].first, "k");
  EXPECT_EQ(forwarded[1].second, "3..7:2");
  // Forwarded keys count as consumed: a second parser owns their errors.
  EXPECT_NO_THROW(args.reject_unknown());
  EXPECT_TRUE(args.take_unconsumed().empty());
}

}  // namespace
}  // namespace decycle::util
