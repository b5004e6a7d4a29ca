// Checked tick arithmetic: conversions and sums that would pass SimTime's
// 2^63 - 1 ns report "does not fit" instead of hitting undefined
// behaviour, and every value that fits rounds as the unchecked
// conversions do.
#include "common/sim_time.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace pe {
namespace {

constexpr SimTime kMax = std::numeric_limits<SimTime>::max();

TEST(SimTime, CheckedTicksRoundsLikeTheUncheckedConversions) {
  for (const double x : {0.0, 0.4e-9, 0.5e-9, 1.0, 2.5, 1e-3, 123.456789,
                         9.2e9}) {
    EXPECT_EQ(CheckedTicks(x, kNsPerSec), SecToTicks(x)) << x;
    EXPECT_EQ(CheckedTicks(x, kNsPerMs), MsToTicks(x)) << x;
    EXPECT_EQ(CheckedTicks(x, kNsPerUs), UsToTicks(x)) << x;
  }
}

TEST(SimTime, CheckedTicksStopsAtTwoToTheSixtyThree) {
  // The largest double below 2^63 converts; 2^63 itself does not.
  const double below = std::nextafter(kTickLimit, 0.0);
  ASSERT_EQ(CheckedTicks(below, 1), static_cast<SimTime>(below));
  EXPECT_FALSE(CheckedTicks(kTickLimit, 1));
  EXPECT_FALSE(CheckedTicks(1e12, kNsPerSec));  // 1e21 ns
  EXPECT_TRUE(CheckedTicks(9.2e9, kNsPerSec));  // 9.2e18 ns
  EXPECT_FALSE(CheckedTicks(9.3e9, kNsPerSec));
  EXPECT_FALSE(CheckedTicks(std::numeric_limits<double>::infinity(), 1));
  EXPECT_FALSE(CheckedTicks(std::nan(""), kNsPerMs));
  EXPECT_FALSE(CheckedTicks(-1.0, kNsPerSec));
  EXPECT_EQ(CheckedTicks(-0.0, kNsPerSec), 0);
}

TEST(SimTime, CheckedAddStopsAtTheLargestTick) {
  EXPECT_EQ(CheckedAdd(kMax - 5, 5), kMax);
  EXPECT_FALSE(CheckedAdd(kMax - 5, 6));
  EXPECT_FALSE(CheckedAdd(kMax, kMax));
  EXPECT_EQ(CheckedAdd(0, 0), 0);
  EXPECT_EQ(CheckedAdd(-3, 10), 7);
}

}  // namespace
}  // namespace pe
