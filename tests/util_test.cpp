// Unit tests for the util substrate: RNG determinism and distributions,
// summary statistics, step functions, tables and CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/cli.hpp"
#include "util/parse_number.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/step_function.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace chronus::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.uniform_int(-3, 5);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 5);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SingletonRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, LogNormalMedian) {
  Rng rng(17);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.log_normal(std::log(50.0), 0.8));
  EXPECT_NEAR(s.percentile(50), 50.0, 3.0);
  EXPECT_GT(s.max(), 150.0);  // heavy tail
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIsIndependent) {
  Rng base(29);
  Rng a = base.fork(0);
  Rng b = base.fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Summary, BasicStats) {
  Summary s;
  s.add_all({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(Summary, BoxStats) {
  Summary s;
  s.add_all({1, 2, 3, 4, 5, 6, 7, 8, 9});
  const BoxStats b = s.box();
  EXPECT_DOUBLE_EQ(b.median, 5.0);
  EXPECT_DOUBLE_EQ(b.q1, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 7.0);
  EXPECT_EQ(b.count, 9u);
}

TEST(Summary, EmptyThrowsOnOrderStats) {
  Summary s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(Cdf, AtAndQuantile) {
  Cdf cdf({1, 2, 2, 3, 10});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(2), 0.6);
  EXPECT_DOUBLE_EQ(cdf.at(100), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 10.0);
}

TEST(Cdf, PointsMonotonic) {
  Cdf cdf({3, 1, 2});
  const auto pts = cdf.points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts.front().first, 1.0);
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(StepFunction, FlatInitially) {
  StepFunction f(2.5);
  EXPECT_DOUBLE_EQ(f.at(-100), 2.5);
  EXPECT_DOUBLE_EQ(f.at(100), 2.5);
}

TEST(StepFunction, AddInterval) {
  StepFunction f;
  f.add(10, 20, 3.0);
  EXPECT_DOUBLE_EQ(f.at(9), 0.0);
  EXPECT_DOUBLE_EQ(f.at(10), 3.0);
  EXPECT_DOUBLE_EQ(f.at(19), 3.0);
  EXPECT_DOUBLE_EQ(f.at(20), 0.0);
}

TEST(StepFunction, OverlappingAdds) {
  StepFunction f;
  f.add(0, 10, 1.0);
  f.add(5, 15, 1.0);
  EXPECT_DOUBLE_EQ(f.at(4), 1.0);
  EXPECT_DOUBLE_EQ(f.at(5), 2.0);
  EXPECT_DOUBLE_EQ(f.at(9), 2.0);
  EXPECT_DOUBLE_EQ(f.at(10), 1.0);
  EXPECT_DOUBLE_EQ(f.at(14), 1.0);
  EXPECT_DOUBLE_EQ(f.at(15), 0.0);
}

TEST(StepFunction, MaxOver) {
  StepFunction f;
  f.add(0, 10, 1.0);
  f.add(5, 7, 2.0);
  EXPECT_DOUBLE_EQ(f.max_over(0, 10), 3.0);
  EXPECT_DOUBLE_EQ(f.max_over(0, 5), 1.0);
  EXPECT_DOUBLE_EQ(f.max_over(7, 10), 1.0);
}

TEST(StepFunction, Integral) {
  StepFunction f;
  f.add(0, 10, 2.0);
  EXPECT_DOUBLE_EQ(f.integral(0, 10), 20.0);
  EXPECT_DOUBLE_EQ(f.integral(-5, 5), 10.0);
  EXPECT_DOUBLE_EQ(f.integral(5, 5), 0.0);
  EXPECT_DOUBLE_EQ(f.integral(10, 20), 0.0);
}

TEST(StepFunction, AddFrom) {
  StepFunction f;
  f.add_from(5, 1.5);
  EXPECT_DOUBLE_EQ(f.at(4), 0.0);
  EXPECT_DOUBLE_EQ(f.at(5), 1.5);
  EXPECT_DOUBLE_EQ(f.at(1000000), 1.5);
}

TEST(StepFunction, FirstTimeAbove) {
  StepFunction f;
  f.add(10, 20, 5.0);
  EXPECT_EQ(f.first_time_above(0, 30, 4.0), 10);
  EXPECT_EQ(f.first_time_above(0, 30, 5.0), 30);  // never strictly above
  EXPECT_EQ(f.first_time_above(15, 30, 4.0), 15);
}

TEST(StepFunction, NormalizeRemovesRedundantBreakpoints) {
  StepFunction f;
  f.add(0, 10, 1.0);
  f.add(10, 20, 1.0);  // contiguous equal value
  f.normalize();
  EXPECT_EQ(f.breakpoints().size(), 2u);
  EXPECT_DOUBLE_EQ(f.at(10), 1.0);
  EXPECT_DOUBLE_EQ(f.at(20), 0.0);
}

TEST(StepFunction, RejectsEmptyInterval) {
  StepFunction f;
  EXPECT_THROW(f.add(5, 5, 1.0), std::invalid_argument);
  EXPECT_THROW(f.max_over(5, 5), std::invalid_argument);
  EXPECT_THROW(f.integral(6, 5), std::invalid_argument);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, HandlesShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--n=30", "--seed", "7", "--verbose"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 30);
  EXPECT_EQ(cli.get_int("seed", 0), 7);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_EQ(cli.get_int("absent", 42), 42);
}

TEST(Cli, TracksUnusedFlags) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  Cli cli(3, argv);
  (void)cli.get_int("used", 0);
  const auto unused = cli.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, NumbersAreReadInFull) {
  const char* argv[] = {"prog", "--n=4x", "--rate=1.5x", "--seed=-1",
                        "--m=12", "--r=0.25"};
  Cli cli(6, argv);
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("rate", 0.0), std::invalid_argument);
  EXPECT_EQ(cli.get_int("seed", 0), -1);
  EXPECT_EQ(cli.get_int("m", 0), 12);
  EXPECT_DOUBLE_EQ(cli.get_double("r", 0.0), 0.25);
  try {
    cli.get_int("n", 0);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "bad number in: --n=4x");
  }
}

TEST(ParseNumber, IntegersAreWholeDecimalTokens) {
  EXPECT_EQ(parse_number<std::int64_t>("30000"), 30000);
  EXPECT_EQ(parse_number<std::int64_t>("-7"), -7);
  for (const char* bad : {"3e4", "0x10", "2.5", "7x", "", " 1", "+1", "1 ",
                          "99999999999999999999"}) {
    EXPECT_FALSE(parse_number<std::int64_t>(bad).has_value()) << bad;
  }
  // No wrap-around into unsigned types.
  EXPECT_FALSE(parse_number<std::uint64_t>("-1").has_value());
  EXPECT_FALSE(parse_number<std::uint32_t>("-1").has_value());
  EXPECT_FALSE(parse_number<std::uint32_t>("4294967296").has_value());
  EXPECT_EQ(parse_number<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_number<int>("2147483648").has_value());
}

TEST(ParseNumber, DoublesAreFinite) {
  EXPECT_EQ(parse_number<double>("2.5"), 2.5);
  EXPECT_EQ(parse_number<double>("1e-05"), 1e-05);
  EXPECT_EQ(parse_number<double>("1.5e+20"), 1.5e+20);
  EXPECT_EQ(parse_number<double>("-0.25"), -0.25);
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "0x1p3", "1.5x",
                          "", "+1", "."}) {
    EXPECT_FALSE(parse_number<double>(bad).has_value()) << bad;
  }
  EXPECT_THROW(to_number<double>("nan"), std::invalid_argument);
  EXPECT_EQ(to_number<int>("12"), 12);
}

TEST(Cli, RejectsPositionalArgs) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Cli(2, argv), std::invalid_argument);
}

TEST(Deadline, DisabledNeverExpires) {
  Deadline d(0);
  EXPECT_FALSE(d.expired());
}

TEST(Deadline, ExpiresQuickly) {
  Deadline d(1e-9);
  // Spin briefly.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  EXPECT_TRUE(d.expired());
}

TEST(Stopwatch, MeasuresForward) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
}

}  // namespace
}  // namespace chronus::util
