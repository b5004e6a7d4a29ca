// The stats oracle's Percentile: exact interpolated percentiles.
#include <gtest/gtest.h>

#include "stats_oracle.h"

namespace pe::testing {
namespace {

TEST(Percentile, EmptyReturnsZero) {
  Percentile p;
  EXPECT_EQ(p.Value(50), 0.0);
  EXPECT_EQ(p.P95(), 0.0);
}

TEST(Percentile, SingleSample) {
  Percentile p;
  p.Add(42.0);
  EXPECT_DOUBLE_EQ(p.Value(0), 42.0);
  EXPECT_DOUBLE_EQ(p.Value(100), 42.0);
  EXPECT_DOUBLE_EQ(p.P95(), 42.0);
}

TEST(Percentile, MedianOfOddCount) {
  Percentile p;
  for (double x : {5.0, 1.0, 3.0}) p.Add(x);
  EXPECT_DOUBLE_EQ(p.P50(), 3.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  Percentile p;
  p.Add(10.0);
  p.Add(20.0);
  EXPECT_DOUBLE_EQ(p.P50(), 15.0);
  EXPECT_DOUBLE_EQ(p.Value(25), 12.5);
}

TEST(Percentile, P95OfUniformRamp) {
  Percentile p;
  for (int i = 1; i <= 100; ++i) p.Add(static_cast<double>(i));
  EXPECT_NEAR(p.P95(), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(p.Max(), 100.0);
  EXPECT_DOUBLE_EQ(p.Mean(), 50.5);
}

TEST(Percentile, AddAfterQueryStillCorrect) {
  Percentile p;
  p.Add(1.0);
  EXPECT_DOUBLE_EQ(p.P50(), 1.0);
  p.Add(3.0);
  EXPECT_DOUBLE_EQ(p.P50(), 2.0);  // re-sorts lazily after mutation
}

TEST(Percentile, ClearResets) {
  Percentile p;
  p.Add(1.0);
  p.Clear();
  EXPECT_EQ(p.count(), 0u);
  EXPECT_EQ(p.P95(), 0.0);
}

}  // namespace
}  // namespace pe::testing
