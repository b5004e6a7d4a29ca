#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace pe::workload {
namespace {

TEST(PoissonArrivals, MeanRateMatches) {
  PoissonArrivals p(250.0);
  Rng rng(1);
  SimTime total = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) total += p.NextGap(rng);
  const double rate = n / TicksToSec(total);
  EXPECT_NEAR(rate, 250.0, 5.0);
}

TEST(PoissonArrivals, GapsStrictlyPositive) {
  PoissonArrivals p(1e6);  // very high rate -> tiny gaps, still >= 1 tick
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(p.NextGap(rng), 1);
}

TEST(PoissonArrivals, RejectsNonPositiveRate) {
  EXPECT_THROW(PoissonArrivals(0.0), std::invalid_argument);
  EXPECT_THROW(PoissonArrivals(-5.0), std::invalid_argument);
}

TEST(PoissonArrivals, RejectsNonFiniteRate) {
  EXPECT_THROW(PoissonArrivals(std::nan("")), std::invalid_argument);
  EXPECT_THROW(PoissonArrivals(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(PoissonArrivals(-std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(PoissonArrivals, TinyRatesThrowNamingTheRateInsteadOfWrapping) {
  // 1e-12 q/s: a typical gap is ~1e21 ns, past 2^63.  The conversion used
  // to be undefined and clamped to a 1 ns gap.
  PoissonArrivals tiny(1e-12);
  Rng rng(4);
  try {
    tiny.NextGap(rng);
    FAIL() << "a 1e-12 q/s gap fit the tick clock";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("rate 1e-12"), std::string::npos)
        << e.what();
  }
  // 1e-6 q/s: each gap fits, but 20,000 of them sum past 2^63 ns; the
  // clock used to wrap negative.
  PoissonArrivals slow(1e-6);
  SimTime now = 0;
  try {
    for (int i = 0; i < 20'000; ++i) {
      const SimTime next = slow.Advance(now, rng);
      ASSERT_GT(next, now);
      now = next;
    }
    FAIL() << "20,000 arrivals at 1e-6 q/s fit the tick clock";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("rate 1e-06"), std::string::npos)
        << e.what();
  }
}

TEST(PoissonArrivals, GapsExponentialCoefficientOfVariation) {
  // Exponential gaps have CV = 1.
  PoissonArrivals p(100.0);
  Rng rng(3);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = TicksToSec(p.NextGap(rng));
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

}  // namespace
}  // namespace pe::workload
