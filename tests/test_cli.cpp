// Tests for the command-line utilities (size notation parser, Args), the
// ddlfft driver's profile subcommand, and the WHT public facade.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ddl/common/aligned.hpp"
#include "ddl/common/cli.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/wht/wht.hpp"
#include "ddl/wht/wht_api.hpp"

namespace ddl::cli {
namespace {

TEST(ParseSize, PlainDecimal) {
  EXPECT_EQ(parse_size("0"), 0);
  EXPECT_EQ(parse_size("1"), 1);
  EXPECT_EQ(parse_size("1048576"), 1048576);
}

TEST(ParseSize, PowerNotation) {
  EXPECT_EQ(parse_size("2^0"), 1);
  EXPECT_EQ(parse_size("2^10"), 1024);
  EXPECT_EQ(parse_size("2^20"), 1 << 20);
  EXPECT_EQ(parse_size("2^40"), index_t{1} << 40);
}

TEST(ParseSize, Suffixes) {
  EXPECT_EQ(parse_size("512K"), 512 * 1024);
  EXPECT_EQ(parse_size("512k"), 512 * 1024);
  EXPECT_EQ(parse_size("64M"), 64 * 1024 * 1024);
  EXPECT_EQ(parse_size("2G"), index_t{2} << 30);
}

TEST(ParseSize, Errors) {
  EXPECT_THROW(parse_size(""), std::invalid_argument);
  EXPECT_THROW(parse_size("abc"), std::invalid_argument);
  EXPECT_THROW(parse_size("3^4"), std::invalid_argument);
  EXPECT_THROW(parse_size("2^"), std::invalid_argument);
  EXPECT_THROW(parse_size("2^99"), std::invalid_argument);
  EXPECT_THROW(parse_size("12Q"), std::invalid_argument);
  EXPECT_THROW(parse_size("12KB"), std::invalid_argument);
}

/// Run a shell command; returns its exit status and stdout+stderr.
std::pair<int, std::string> run_command(const std::string& cmd) {
  std::string out;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return {-1, out};
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, got);
  return {pclose(pipe), out};
}

// `ddlfft profile` sizes its event rings from a traced warmup, so every
// timed rep reaches the summary: the radix-2 tree of 2^10 records about
// 4k events per transform, and 40 reps would overrun the default
// 2^15-event ring more than four times over.
TEST(CliProfile, EveryRepReachesTheSummary) {
  const auto trace = std::filesystem::temp_directory_path() / "ddlfft_cli_profile_test.json";
  const std::string tree = "ct(2,ct(2,ct(2,ct(2,ct(2,ct(2,ct(2,ct(2,ct(2,2)))))))))";
  const auto [status, out] = run_command(std::string(DDLFFT_PATH) + " profile --tree \"" +
                                         tree + "\" --reps 40 --threads 1 --trace " +
                                         trace.string());
  std::filesystem::remove(trace);
  ASSERT_EQ(status, 0) << out;
  EXPECT_EQ(out.find("events_dropped"), std::string::npos) << out;
  EXPECT_EQ(out.find("warning"), std::string::npos) << out;
  const std::size_t row = out.find("\ntransform ");
  ASSERT_NE(row, std::string::npos) << out;
  std::istringstream line(out.substr(row + 1));
  std::string stage;
  long calls = 0;
  line >> stage >> calls;
  EXPECT_EQ(calls, 40) << out;
}

std::vector<const char*> argv_of(std::initializer_list<const char*> items) {
  return {items};
}

TEST(Args, CommandAndFlags) {
  const auto argv = argv_of({"prog", "plan", "--n", "2^20", "--verbose", "--strategy", "ddl_dp"});
  const auto args = Args::parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.command(), "plan");
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.get("verbose").has_value());  // bare switch
  EXPECT_EQ(args.get_or("strategy", "x"), "ddl_dp");
  EXPECT_EQ(args.size_or("n", 0), 1 << 20);
  EXPECT_EQ(args.size_or("missing", 7), 7);
}

TEST(Args, NoCommand) {
  const auto argv = argv_of({"prog", "--n", "16"});
  const auto args = Args::parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(args.command().empty());
  EXPECT_EQ(args.int_or("n", 0), 16);
}

TEST(Args, TypedAccessors) {
  const auto argv = argv_of({"prog", "run", "--reps", "5", "--floor", "0.25"});
  const auto args = Args::parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.int_or("reps", 1), 5);
  EXPECT_DOUBLE_EQ(args.double_or("floor", 0.0), 0.25);
}

TEST(Args, UnusedKeysTracksReads) {
  const auto argv = argv_of({"prog", "x", "--a", "1", "--b", "2"});
  const auto args = Args::parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_or("a", ""), "1");
  const auto unused = args.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "b");
}

TEST(Args, MalformedFlagThrows) {
  const auto argv = argv_of({"prog", "run", "-n", "4"});
  EXPECT_THROW(Args::parse(static_cast<int>(argv.size()), argv.data()), std::invalid_argument);
}

TEST(Args, PositionalOperandsAfterCommand) {
  // `ddlfft profile 2^20 --reps 3` style: bare tokens become positionals.
  const auto argv = argv_of({"prog", "profile", "2^20", "--reps", "3"});
  const auto args = Args::parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.command(), "profile");
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positional(0).value(), "2^20");
  EXPECT_FALSE(args.positional(1).has_value());
  EXPECT_EQ(args.int_or("reps", 0), 3);
}

TEST(Args, PositionalsDoNotSwallowFlagValues) {
  // A bare token right after "--key" is that key's value, not a positional;
  // one after a consumed pair is positional again.
  const auto argv = argv_of({"prog", "run", "--n", "64", "extra", "more"});
  const auto args = Args::parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.size_or("n", 0), 64);
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positional(0).value(), "extra");
  EXPECT_EQ(args.positional(1).value(), "more");
}

TEST(Args, NoPositionalsByDefault) {
  const auto argv = argv_of({"prog", "plan", "--n", "16"});
  const auto args = Args::parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(args.positionals().empty());
  EXPECT_FALSE(args.positional(0).has_value());
}

}  // namespace
}  // namespace ddl::cli

namespace ddl::wht {
namespace {

TEST(WhtFacade, FromTreeTransformInverse) {
  auto wht = Wht::from_tree("ctddl(ct(64,16),64)");
  EXPECT_EQ(wht.size(), 64 * 16 * 64);
  EXPECT_EQ(wht.tree_string(), "ctddl(ct(64,16),64)");
  EXPECT_EQ(wht.ddl_nodes(), 1);

  AlignedBuffer<real_t> x(wht.size());
  fill_random(x.span(), 15);
  const std::vector<real_t> original(x.begin(), x.end());
  wht.transform(x.span());
  wht.inverse(x.span());
  for (index_t i = 0; i < wht.size(); ++i) {
    ASSERT_NEAR(x[i], original[static_cast<std::size_t>(i)], 1e-9 * wht.size());
  }
}

TEST(WhtFacade, TransformMatchesReference) {
  auto wht = Wht::from_tree("ct(16,16)");
  AlignedBuffer<real_t> x(256);
  fill_random(x.span(), 23);
  std::vector<real_t> expect(x.begin(), x.end());
  wht_reference(std::span<real_t>(expect));
  wht.transform(x.span());
  for (index_t i = 0; i < 256; ++i) {
    ASSERT_NEAR(x[i], expect[static_cast<std::size_t>(i)], 1e-10 * 256);
  }
}

TEST(WhtFacade, PlanWithSharedPlanner) {
  PlannerOptions opts;
  opts.measure_floor = 2e-4;
  opts.stream_points = 1 << 14;
  WhtPlanner planner(opts);
  auto wht = Wht::plan_with(planner, 1 << 12);
  EXPECT_EQ(wht.size(), 1 << 12);
  AlignedBuffer<real_t> x(wht.size());
  fill_random(x.span(), 2);
  const std::vector<real_t> original(x.begin(), x.end());
  wht.transform(x.span());
  wht.inverse(x.span());
  for (index_t i = 0; i < wht.size(); ++i) {
    ASSERT_NEAR(x[i], original[static_cast<std::size_t>(i)], 1e-9 * wht.size());
  }
}

TEST(WhtFacade, BadGrammarThrows) {
  EXPECT_THROW(Wht::from_tree("ct(3,4)"), std::invalid_argument);  // non-pow2
  EXPECT_THROW(Wht::from_tree("zap(2,2)"), std::invalid_argument);
}

}  // namespace
}  // namespace ddl::wht
