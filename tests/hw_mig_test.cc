#include "hw/mig.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

namespace pe::hw {
namespace {

// The placement oracle: every size multiset (sorted descending, the empty
// one included) that one A100 can hold, found by laying instances out
// slot by slot straight from NVIDIA's placement table -- independent of
// LegalStartSlots and of CanPlaceAll's backtracking search.  Instances
// are laid out in increasing start-slot order, so each layout is visited
// once.
std::set<std::vector<int>> PlaceableMultisets() {
  const std::pair<int, std::vector<int>> kTable[] = {
      {1, {0, 1, 2, 3, 4, 5, 6}},
      {2, {0, 2, 4}},
      {3, {0, 4}},
      {4, {0}},
      {7, {0}},
  };
  std::set<std::vector<int>> found;
  std::vector<int> sizes;
  std::function<void(int, unsigned)> lay = [&](int from, unsigned used) {
    std::vector<int> sorted = sizes;
    std::sort(sorted.begin(), sorted.end(), std::greater<int>());
    found.insert(sorted);
    for (const auto& [gpcs, slots] : kTable) {
      for (int slot : slots) {
        const unsigned span = ((1u << gpcs) - 1u) << slot;
        if (slot < from || slot + gpcs > 7 || (used & span) != 0) continue;
        sizes.push_back(gpcs);
        lay(slot + 1, used | span);
        sizes.pop_back();
      }
    }
  };
  lay(0, 0);
  return found;
}

// Every multiset of the sizes 1..7 with at most `budget` slices in total,
// sorted descending.
std::vector<std::vector<int>> AllMultisets(int budget) {
  std::vector<std::vector<int>> all;
  std::vector<int> current;
  std::function<void(int, int)> grow = [&](int largest, int left) {
    all.push_back(current);
    for (int g = std::min(largest, left); g >= 1; --g) {
      current.push_back(g);
      grow(g, left - g);
      current.pop_back();
    }
  };
  grow(7, budget);
  return all;
}

TEST(LegalStartSlots, MatchesA100PlacementTable) {
  EXPECT_EQ(LegalStartSlots(1), (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(LegalStartSlots(2), (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(LegalStartSlots(3), (std::vector<int>{0, 4}));
  EXPECT_EQ(LegalStartSlots(4), (std::vector<int>{0}));
  EXPECT_EQ(LegalStartSlots(7), (std::vector<int>{0}));
  EXPECT_TRUE(LegalStartSlots(5).empty());
}

TEST(MigLayout, SevenOnesFit) {
  MigLayout layout;
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(layout.TryPlace(1).has_value()) << "instance " << i;
  }
  EXPECT_FALSE(layout.TryPlace(1).has_value());
}

TEST(MigLayout, FourPlusThreeFits) {
  MigLayout layout;
  auto p4 = layout.TryPlace(4);
  ASSERT_TRUE(p4.has_value());
  EXPECT_EQ(p4->start_slot, 0);
  auto p3 = layout.TryPlace(3);
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->start_slot, 4);
  for (int s : {1, 2, 3, 4, 7}) {
    EXPECT_FALSE(layout.TryPlace(s).has_value()) << "size " << s;
  }
}

TEST(MigLayout, SecondFourRejected) {
  MigLayout layout;
  EXPECT_TRUE(layout.TryPlace(4).has_value());
  EXPECT_FALSE(layout.TryPlace(4).has_value());
}

TEST(MigLayout, SevenIsExclusive) {
  MigLayout layout;
  EXPECT_TRUE(layout.TryPlace(7).has_value());
  for (int s : {1, 2, 3, 4, 7}) {
    EXPECT_FALSE(layout.TryPlace(s).has_value()) << "size " << s;
  }
}

TEST(MigLayout, TwoGpcAlignment) {
  MigLayout layout;
  // Three 2g instances at slots 0, 2, 4; slot 6 leaves room for one 1g.
  EXPECT_TRUE(layout.TryPlace(2).has_value());
  EXPECT_TRUE(layout.TryPlace(2).has_value());
  EXPECT_TRUE(layout.TryPlace(2).has_value());
  EXPECT_FALSE(layout.TryPlace(2).has_value());
  EXPECT_TRUE(layout.TryPlace(1).has_value());
  EXPECT_FALSE(layout.TryPlace(1).has_value());
}

TEST(MigLayout, PaperFigure2Heterogeneous) {
  // Paper Figure 2's example heterogeneous splits.
  EXPECT_TRUE(MigLayout::CanPlaceAll({4, 2, 1}));
  EXPECT_TRUE(MigLayout::CanPlaceAll({3, 2, 1, 1}));
  EXPECT_TRUE(MigLayout::CanPlaceAll({2, 2, 2, 1}));
  EXPECT_TRUE(MigLayout::CanPlaceAll({1, 1, 1, 1, 1, 1, 1}));
}

TEST(MigLayout, InfeasibleMultisets) {
  EXPECT_FALSE(MigLayout::CanPlaceAll({4, 4}));
  EXPECT_FALSE(MigLayout::CanPlaceAll({7, 1}));
  EXPECT_FALSE(MigLayout::CanPlaceAll({4, 2, 2}));  // 2g slots 0,2 blocked
}

TEST(MigLayout, ThreeThreeOneIsFeasible) {
  // 3g@0 (slots 0-2), 3g@4 (slots 4-6) leaves slot 3 free for a 1g.
  EXPECT_TRUE(MigLayout::CanPlaceAll({3, 3}));
  EXPECT_TRUE(MigLayout::CanPlaceAll({3, 3, 1}));
}

TEST(MigLayout, EmptyMultisetTriviallyFeasible) {
  EXPECT_TRUE(MigLayout::CanPlaceAll({}));
}

TEST(MigLayout, InvalidSizeRejected) {
  EXPECT_FALSE(MigLayout::CanPlaceAll({5}));
  EXPECT_FALSE(MigLayout::CanPlaceAll({6}));
}

TEST(MigLayout, OracleContainsKnownLayouts) {
  const auto sets = PlaceableMultisets();
  auto contains = [&](std::vector<int> v) {
    std::sort(v.begin(), v.end(), std::greater<int>());
    return sets.count(v) > 0;
  };
  EXPECT_TRUE(contains({7}));
  EXPECT_TRUE(contains({4, 3}));
  EXPECT_TRUE(contains({4, 2, 1}));
  EXPECT_TRUE(contains({3, 2, 1, 1}));
  EXPECT_TRUE(contains({2, 2, 2, 1}));
  EXPECT_TRUE(contains({1, 1, 1, 1, 1, 1, 1}));
  EXPECT_TRUE(contains({}));
  EXPECT_FALSE(contains({4, 4}));
  EXPECT_FALSE(contains({7, 1}));
}

TEST(MigLayout, CanPlaceAllMatchesThePlacementOracle) {
  // Every multiset of sizes 1..7 up to 9 slices, invalid sizes and
  // over-full GPUs included.
  const auto placeable = PlaceableMultisets();
  for (const auto& sizes : AllMultisets(9)) {
    EXPECT_EQ(MigLayout::CanPlaceAll(sizes), placeable.count(sizes) > 0)
        << ::testing::PrintToString(sizes);
  }
}

TEST(MigLayout, TryPlaceTakesTheLowestLegalFreeSlot) {
  MigLayout layout;
  EXPECT_EQ(layout.TryPlace(3)->start_slot, 0);
  EXPECT_EQ(layout.TryPlace(2)->start_slot, 4);
  EXPECT_EQ(layout.TryPlace(1)->start_slot, 3);
}

TEST(MigLayout, GreedyTryPlaceIsNotComplete) {
  // {3,2,2} is feasible only with the 3g at slot 4; greedy TryPlace puts it
  // at slot 0 and gets stuck.  Backtracking CanPlaceAll must still succeed.
  EXPECT_TRUE(MigLayout::CanPlaceAll({3, 2, 2}));
  MigLayout layout;
  EXPECT_TRUE(layout.TryPlace(3).has_value());  // lands at slot 0
  EXPECT_TRUE(layout.TryPlace(2).has_value());  // slot 4
  EXPECT_FALSE(layout.TryPlace(2).has_value());
}

// Property sweep: every multiset the oracle places must be feasible to the
// backtracking placer, and so must each of its sub-multisets.
class MigEnumerationTest
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(MigEnumerationTest, BacktrackingPlacementSucceeds) {
  auto sizes = GetParam();
  EXPECT_TRUE(MigLayout::CanPlaceAll(sizes));
  // Any sub-multiset of a feasible multiset is feasible too.
  for (std::size_t drop = 0; drop < sizes.size(); ++drop) {
    auto sub = sizes;
    sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_TRUE(MigLayout::CanPlaceAll(sub));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFeasible, MigEnumerationTest,
    ::testing::ValuesIn([] {
      const auto placeable = PlaceableMultisets();
      // Drop the empty set (nothing to place).
      return std::vector<std::vector<int>>(std::next(placeable.begin()),
                                           placeable.end());
    }()));

}  // namespace
}  // namespace pe::hw
