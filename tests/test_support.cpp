// Unit tests for the support layer: RNG, statistics, tables, CSV, env.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <cmath>
#include <sstream>

#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace dagpm::support {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniformInt(3, 17);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) ++seen[rng.uniformInt(0, 5)];
  for (const int count : seen) EXPECT_GT(count, 700);  // ~1000 expected
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniformReal();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRealRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniformReal(2.5, 7.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  Rng b(42);
  b.next();  // fork consumed one draw from the parent
  EXPECT_EQ(a.next(), b.next());
  // Child stream differs from the parent's continuation.
  EXPECT_NE(child.next(), a.next());
}

TEST(HashName, DistinguishesStrings) {
  EXPECT_NE(hashName("BLAST"), hashName("BWA"));
  EXPECT_EQ(hashName("x"), hashName("x"));
}

TEST(Stats, GeometricMeanBasics) {
  const std::vector<double> v{1.0, 4.0};
  EXPECT_DOUBLE_EQ(geometricMean(v), 2.0);
  EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
}

TEST(Stats, GeometricMeanSingleValue) {
  const std::vector<double> v{3.7};
  EXPECT_NEAR(geometricMean(v), 3.7, 1e-12);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(v), 4.0);
  EXPECT_NEAR(stddev(v), std::sqrt(8.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{1.0}), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, PercentileInterpolatesOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.95), 7.0);
  const std::vector<double> v{4.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), median(v));
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 1.75);
  // Out-of-range quantiles clamp instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(percentile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 4.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> v{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(minOf(v), -1.0);
  EXPECT_DOUBLE_EQ(maxOf(v), 7.0);
}

TEST(Stats, AccumulatorMatchesBatch) {
  Accumulator acc;
  const std::vector<double> v{1.5, 2.5, 4.0, 8.0};
  for (const double x : v) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), mean(v));
  EXPECT_NEAR(acc.geomean(), geometricMean(v), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 1.5);
  EXPECT_DOUBLE_EQ(acc.max(), 8.0);
}

TEST(Stats, AccumulatorGeomeanZeroOnNonPositive) {
  Accumulator acc;
  acc.add(2.0);
  acc.add(0.0);
  EXPECT_DOUBLE_EQ(acc.geomean(), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.addRow({"alpha", "1.00"});
  t.addRow({"b", "123.45"});
  const std::string s = t.toString();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("123.45"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumAndPercentFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::percent(0.41, 1), "41.0%");
}

TEST(Table, HeadingPrints) {
  std::ostringstream oss;
  printHeading(oss, "Fig. 3");
  EXPECT_NE(oss.str().find("Fig. 3"), std::string::npos);
}

TEST(Csv, EscapeRules) {
  EXPECT_EQ(csvEscape("plain"), "plain");
  EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WriteCreatesFile) {
  const std::string path = testing::TempDir() + "/dagpm_test.csv";
  ASSERT_TRUE(writeCsv(path, {"a", "b"}, {{"1", "2"}, {"3", "x,y"}}));
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "a,b");
  std::getline(is, line);
  EXPECT_EQ(line, "1,2");
  std::getline(is, line);
  EXPECT_EQ(line, "3,\"x,y\"");
  std::remove(path.c_str());
}

TEST(Env, DefaultSizesFormBands) {
  BenchEnv env;  // default scale
  EXPECT_FALSE(env.smallSizes().empty());
  EXPECT_FALSE(env.midSizes().empty());
  EXPECT_FALSE(env.bigSizes().empty());
  // Bands are ordered: every small < every mid < every big.
  for (const int s : env.smallSizes()) {
    for (const int m : env.midSizes()) EXPECT_LT(s, m);
  }
  for (const int m : env.midSizes()) {
    for (const int b : env.bigSizes()) EXPECT_LT(m, b);
  }
}

TEST(Env, FullScaleMatchesPaperSizes) {
  BenchEnv env;
  env.scale = BenchScale::kFull;
  EXPECT_EQ(env.bigSizes(), (std::vector<int>{20000, 25000, 30000}));
  EXPECT_EQ(env.midSizes(), (std::vector<int>{10000, 15000, 18000}));
}

TEST(Env, GetEnvOrFallback) {
  EXPECT_EQ(getEnvOr("DAGPM_SURELY_UNSET_VAR_123", "fb"), "fb");
}

}  // namespace
}  // namespace dagpm::support
