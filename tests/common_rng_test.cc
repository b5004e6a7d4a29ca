#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

namespace pe {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r.NextU64());
  EXPECT_GT(seen.size(), 95u);  // not stuck or cyclic
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.UniformInt(2, 6));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(2));
  EXPECT_TRUE(seen.count(6));
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.UniformInt(5, 5), 5);
}

TEST(Rng, PrecomputedRangeDrawsTheSameStream) {
  // A precomputed range is the same draw rule: same values, same stream
  // consumption, including the degenerate and the full 64-bit range.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0}, {5, 5}, {0, 1}, {0, 98}, {-7, 13}, {0, kMax}, {kMin, kMax}};
  for (const auto& [lo, hi] : ranges) {
    Rng a(19);
    Rng b(19);
    const UniformIntRange range(lo, hi);
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(a.UniformInt(lo, hi), b.UniformInt(range)) << lo << ".." << hi;
    }
    EXPECT_EQ(a.NextU64(), b.NextU64()) << lo << ".." << hi;
  }
  // The full range takes raw draws, without overflowing hi - lo.
  Rng full(23);
  Rng raw(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(full.UniformInt(kMin, kMax),
              static_cast<std::int64_t>(raw.NextU64()));
  }
  // The oracle: lo + NextU64() % span after rejecting draws at or above
  // UINT64_MAX - UINT64_MAX % span, on both sides of the 2^32 boundary
  // below which the remainder is computed by multiplication.
  const std::uint64_t spans[] = {
      1, 2, 3, 7, 8, 49, 50, (1ull << 31) - 1, (1ull << 32) - 1, 1ull << 32,
      (1ull << 32) + 1, 1ull << 63};
  for (const std::uint64_t span : spans) {
    for (const std::int64_t lo : {std::int64_t{0}, std::int64_t{-17}}) {
      const auto hi = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(lo) + (span - 1));
      const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
      Rng oracle(29);
      Rng drawn(29);
      const UniformIntRange range(lo, hi);
      for (int i = 0; i < 20'000; ++i) {
        std::uint64_t draw;
        do {
          draw = oracle.NextU64();
        } while (draw >= limit);
        const auto expected = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(lo) + draw % span);
        ASSERT_EQ(drawn.UniformInt(range), expected) << "span " << span;
      }
      EXPECT_EQ(oracle.NextU64(), drawn.NextU64()) << "span " << span;
    }
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(13);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.Exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, ExponentialAlwaysPositive) {
  Rng r(17);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(r.Exponential(100.0), 0.0);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(19);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.Normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.03);
  EXPECT_NEAR(var, 9.0, 0.15);
}

}  // namespace
}  // namespace pe
