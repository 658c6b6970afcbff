#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"

namespace bsched {
namespace {

TEST(SimTimeTest, ConstructorsAndConversions) {
  EXPECT_EQ(SimTime::Nanos(5).nanos(), 5);
  EXPECT_EQ(SimTime::Micros(3).nanos(), 3000);
  EXPECT_EQ(SimTime::Millis(2).nanos(), 2'000'000);
  EXPECT_EQ(SimTime::Seconds(1.5).nanos(), 1'500'000'000);
  EXPECT_DOUBLE_EQ(SimTime::Seconds(2.0).ToSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(SimTime::Millis(5).ToMillis(), 5.0);
  EXPECT_DOUBLE_EQ(SimTime::Micros(7).ToMicros(), 7.0);
}

TEST(SimTimeTest, Arithmetic) {
  SimTime a = SimTime::Micros(10);
  SimTime b = SimTime::Micros(4);
  EXPECT_EQ((a + b).nanos(), 14'000);
  EXPECT_EQ((a - b).nanos(), 6'000);
  EXPECT_EQ((b * 3).nanos(), 12'000);
  a += b;
  EXPECT_EQ(a.nanos(), 14'000);
}

TEST(SimTimeTest, Comparison) {
  EXPECT_LT(SimTime::Micros(1), SimTime::Micros(2));
  EXPECT_EQ(SimTime::Millis(1), SimTime::Micros(1000));
  EXPECT_GT(SimTime::Max(), SimTime::Seconds(1e9));
}

TEST(SimTimeTest, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::Nanos(12).ToString(), "12ns");
  EXPECT_EQ(SimTime::Micros(12).ToString(), "12.000us");
  EXPECT_EQ(SimTime::Millis(12).ToString(), "12.000ms");
  EXPECT_EQ(SimTime::Seconds(1.25).ToString(), "1.250s");
}

TEST(SimTimeTest, BackoffTimeoutScalesAndTruncates) {
  EXPECT_EQ(BackoffTimeout(SimTime::Millis(25), 2.0, 0), SimTime::Millis(25));
  EXPECT_EQ(BackoffTimeout(SimTime::Millis(25), 2.0, 3), SimTime::Millis(200));
  // 7 ns * 1.5^2 = 15.75 ns, truncated.
  EXPECT_EQ(BackoffTimeout(SimTime::Nanos(7), 1.5, 2), SimTime::Nanos(15));
}

TEST(BytesTest, Helpers) {
  EXPECT_EQ(KiB(1), 1024);
  EXPECT_EQ(MiB(1), 1024 * 1024);
  EXPECT_EQ(GiB(2), 2LL * 1024 * 1024 * 1024);
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(KiB(2)), "2.00KiB");
  EXPECT_EQ(FormatBytes(MiB(3)), "3.00MiB");
}

TEST(BandwidthTest, GbpsConversion) {
  Bandwidth b = Bandwidth::Gbps(10);
  EXPECT_DOUBLE_EQ(b.bytes_per_sec(), 1.25e9);
  EXPECT_DOUBLE_EQ(b.ToGbps(), 10.0);
}

TEST(BandwidthTest, TransmitTime) {
  Bandwidth b = Bandwidth::Gbps(8);  // 1 GB/s
  EXPECT_EQ(b.TransmitTime(1'000'000'000).nanos(), 1'000'000'000);
  EXPECT_EQ(b.TransmitTime(1000).nanos(), 1000);
}

TEST(BandwidthTest, ZeroBandwidthNeverCompletes) {
  Bandwidth b;
  EXPECT_EQ(b.TransmitTime(1), SimTime::Max());
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) {
    s.Add(5.0 + 2.0 * rng.NextGaussian());
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

// PercentileInPlace of a copy of `values`.
double PercentileOf(std::vector<double> values, double p) { return PercentileInPlace(values, p); }

TEST(PercentileTest, Basics) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(PercentileOf(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileOf(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(PercentileOf(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(PercentileOf(v, 25), 2.0);
  // Between two ranks the value interpolates linearly.
  EXPECT_DOUBLE_EQ(PercentileOf(v, 10), 1.4);
  EXPECT_DOUBLE_EQ(PercentileOf({10.0, 20.0}, 75), 17.5);
  EXPECT_DOUBLE_EQ(PercentileOf({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(PercentileOf({42.0}, 99), 42.0);
}

TEST(PercentileTest, InPlaceMatchesFullSort) {
  Rng rng(97);
  std::vector<double> values;
  for (int i = 0; i < 501; ++i) {
    values.push_back(rng.Uniform(0.0, 1000.0));
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0}) {
    // Linear interpolation between the two neighbouring ranks of the sorted
    // sample.
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    const double want = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    std::vector<double> scratch = values;
    EXPECT_DOUBLE_EQ(PercentileInPlace(scratch, p), want) << "p=" << p;
  }
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(PercentileInPlace(empty, 50), 0.0);
  std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(PercentileInPlace(one, 99), 42.0);
}

TEST(MeanStdDevTest, Vector) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 1.0);
}

TEST(TableTest, AsciiRendering) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"bb", "22"});
  std::ostringstream os;
  t.RenderAscii(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name | value |"), std::string::npos);
  EXPECT_NE(out.find("| bb   | 22    |"), std::string::npos);
}

TEST(TableTest, RowPaddedToHeaderWidth) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  t.AddRow({"x", "y", "z", "dropped"});
  std::ostringstream os;
  t.RenderAscii(os);
  EXPECT_EQ(os.str(),
            "| a    | b | c |\n"
            "|------|---|---|\n"
            "| only |   |   |\n"
            "| x    | y | z |\n");
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(10.0, 0), "10");
}

// A numeric flag must be one whole finite number token; anything else exits
// 2 with the program, flag and value on stderr instead of parsing a prefix,
// reading as 0, or saturating to infinity.
TEST(FlagsTest, NumbersMustBeWholeFiniteTokens) {
  const char* argv[] = {"prog", "--n=2x", "--x=abc", "--e=", "--big=1e999", "--nan=nan",
                        "--ok=-7", "--real=2.5e3"};
  const Flags flags(8, argv);
  EXPECT_EQ(flags.GetInt("ok", 0), -7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("real", 0), 2500.0);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ok", 0), -7.0);
  EXPECT_EXIT(flags.GetInt("n", 0), ::testing::ExitedWithCode(2), "prog: --n needs a whole .*'2x'");
  EXPECT_EXIT(flags.GetDouble("n", 0), ::testing::ExitedWithCode(2), "prog: --n .*'2x'");
  EXPECT_EXIT(flags.GetInt("x", 0), ::testing::ExitedWithCode(2), "prog: --x .*'abc'");
  EXPECT_EXIT(flags.GetDouble("x", 0), ::testing::ExitedWithCode(2), "prog: --x .*'abc'");
  EXPECT_EXIT(flags.GetInt("e", 0), ::testing::ExitedWithCode(2), "prog: --e .*''");
  EXPECT_EXIT(flags.GetDouble("e", 0), ::testing::ExitedWithCode(2), "prog: --e .*''");
  EXPECT_EXIT(flags.GetInt("big", 0), ::testing::ExitedWithCode(2), "'1e999'");
  EXPECT_EXIT(flags.GetDouble("big", 0), ::testing::ExitedWithCode(2),
              "prog: --big needs a finite number, got '1e999'");
  EXPECT_EXIT(flags.GetInt("nan", 0), ::testing::ExitedWithCode(2), "'nan'");
  EXPECT_EXIT(flags.GetDouble("nan", 0), ::testing::ExitedWithCode(2), "'nan'");
  // Absent flags still take the default.
  EXPECT_EQ(flags.GetInt("absent", 42), 42);
}

// A bandwidth below Bandwidth::kMinGbps would overflow SimTime in a transfer
// time (1e-300 Gbps used to abort on a negative delay): it exits 2.
TEST(FlagsTest, GbpsHasAFloor) {
  const char* argv[] = {"prog", "--floor=1e-6", "--tiny=1e-300", "--zero=0"};
  const Flags flags(4, argv);
  EXPECT_DOUBLE_EQ(flags.GetGbps("floor", 100), Bandwidth::kMinGbps);
  EXPECT_DOUBLE_EQ(flags.GetGbps("absent", 100), 100.0);
  EXPECT_EXIT(flags.GetGbps("tiny", 100), ::testing::ExitedWithCode(2),
              "prog: --tiny needs a bandwidth of at least 1e-06 Gbps, got '1e-300'");
  EXPECT_EXIT(flags.GetGbps("zero", 100), ::testing::ExitedWithCode(2), "'0'");
}

}  // namespace
}  // namespace bsched
