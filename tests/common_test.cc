#include <gtest/gtest.h>

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
    s.Add(rng.Gaussian(5.0, 2.0));
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(123);
  Rng child = parent.Fork();
  // Child stream should not reproduce the parent stream.
  Rng parent2(123);
  (void)parent2.NextU64();  // advance past the fork draw
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.NextU64() == parent2.NextU64()) {
      ++same;
    }
  }
  EXPECT_LE(same, 1);
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

TEST(PercentileTest, Basics) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({42.0}, 99), 42.0);
}

TEST(PercentileTest, InPlaceMatchesFullSort) {
  Rng rng(97);
  std::vector<double> values;
  for (int i = 0; i < 501; ++i) {
    values.push_back(rng.Uniform(0.0, 1000.0));
  }
  for (double p : {0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
    std::vector<double> scratch = values;
    EXPECT_DOUBLE_EQ(PercentileInPlace(scratch, p), Percentile(values, p)) << "p=" << p;
  }
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(PercentileInPlace(empty, 50), 0.0);
  std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(PercentileInPlace(one, 99), 42.0);
}

TEST(MeanStdDevTest, Vector) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 1.0);
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

TEST(TableTest, CsvRendering) {
  Table t({"x", "y"});
  t.AddNumericRow("r", {1.25, 2.5}, 2);
  std::ostringstream os;
  t.RenderCsv(os);
  EXPECT_EQ(os.str(), "x,y\nr,1.25\n");
}

TEST(TableTest, RowPaddedToHeaderWidth) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  std::ostringstream os;
  t.RenderCsv(os);
  EXPECT_EQ(os.str(), "a,b,c\nonly,,\n");
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

}  // namespace
}  // namespace bsched
