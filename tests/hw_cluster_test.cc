#include "hw/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace pe::hw {
namespace {

// Compute slices a packed layout uses across every GPU.
int UsedGpcs(const ClusterLayout& layout) {
  int total = 0;
  for (const auto& gpu : layout.per_gpu) {
    total += std::accumulate(gpu.begin(), gpu.end(), 0);
  }
  return total;
}

TEST(Cluster, TotalGpcs) {
  Cluster c(8);
  EXPECT_EQ(c.total_gpcs(), 56);
  EXPECT_EQ(c.num_gpus(), 8);
}

TEST(Cluster, PacksHomogeneousOnes) {
  Cluster c(2);
  const std::vector<int> sizes(14, 1);
  auto layout = c.Pack(sizes);
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(UsedGpcs(*layout), 14);
  EXPECT_EQ(layout->AllInstanceSizes().size(), 14u);
}

TEST(Cluster, RejectsOverBudget) {
  Cluster c(1);
  EXPECT_FALSE(c.Pack(std::vector<int>(8, 1)).has_value());
  EXPECT_FALSE(c.Pack({7, 1}).has_value());
}

TEST(Cluster, RejectsInvalidSizes) {
  Cluster c(2);
  EXPECT_FALSE(c.Pack({5}).has_value());
  EXPECT_FALSE(c.Pack({6, 1}).has_value());
}

TEST(Cluster, SplitsAcrossGpus) {
  Cluster c(2);
  // Two 4g instances cannot share one GPU but fit on two.
  auto layout = c.Pack({4, 4});
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->per_gpu[0], (std::vector<int>{4}));
  EXPECT_EQ(layout->per_gpu[1], (std::vector<int>{4}));
}

TEST(Cluster, PaperBertConfigPacks) {
  // 2xGPU(3) + 2xGPU(4) + 4xGPU(7) on 6 A100s (the paper's PARIS output
  // for BERT, 42 GPCs).
  Cluster c(6);
  auto layout = c.Pack({3, 3, 4, 4, 7, 7, 7, 7});
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(UsedGpcs(*layout), 42);
}

TEST(Cluster, PaperMobilenetConfigPacks) {
  // 6xGPU(1) + 4xGPU(2) + 2xGPU(3) + 1xGPU(4) on 4 A100s (24 GPCs).
  Cluster c(4);
  auto layout = c.Pack({1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4});
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(UsedGpcs(*layout), 24);
}

TEST(Cluster, EachGpuLayoutIsMigFeasible) {
  Cluster c(3);
  auto layout = c.Pack({4, 4, 4, 3, 3, 3});
  ASSERT_TRUE(layout.has_value());
  for (const auto& gpu : layout->per_gpu) {
    EXPECT_TRUE(MigLayout::CanPlaceAll(gpu));
  }
}

TEST(Cluster, DeterministicPacking) {
  Cluster c(4);
  const std::vector<int> sizes = {3, 2, 2, 1, 1, 1, 7, 4};
  auto a = c.Pack(sizes);
  auto b = c.Pack(sizes);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->per_gpu, b->per_gpu);
}

TEST(Cluster, EmptyMultisetPacks) {
  Cluster c(1);
  auto layout = c.Pack({});
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(UsedGpcs(*layout), 0);
}

TEST(PackWithRepair, PassesThroughFeasible) {
  Cluster c(2);
  auto layout = PackWithRepair(c, {7, 7});
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->AllInstanceSizes(), (std::vector<int>{7, 7}));
}

TEST(PackWithRepair, SplitsPreserveTotalGpcs) {
  // Three 4g instances cannot pack on 2 GPUs (one 4g per GPU); repair
  // splits one 4 -> 3+1 which fits as {4,3} {4,1,...}.
  Cluster c(2);
  auto layout = PackWithRepair(c, {4, 4, 4});
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(UsedGpcs(*layout), 12);
}

TEST(PackWithRepair, FailsWhenBudgetExceeded) {
  Cluster c(1);
  EXPECT_FALSE(PackWithRepair(c, {7, 7}).has_value());
  EXPECT_FALSE(PackWithRepair(c, std::vector<int>(8, 1)).has_value());
}

TEST(PackWithRepair, DegradesToAllOnes) {
  // 8 GPCs of demand as {4,4} on one GPU is infeasible no matter the split
  // (7 slots); but {4,3} totals 7 and fits after repairing one 4 into 3+1
  // -- wait, {4,4}=8 > 7 exceeds the budget and must fail.
  Cluster c(1);
  EXPECT_FALSE(PackWithRepair(c, {4, 4}).has_value());
  // 7 GPCs as {4,2,1} is directly feasible.
  auto layout = PackWithRepair(c, {4, 2, 1});
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(UsedGpcs(*layout), 7);
}

TEST(PackWithRepair, RepairChainDownToAllOnes) {
  // Two single-slice GPUs: nothing but 1g instances can ever place, so a
  // 2g demand must walk the full split chain (2 -> 1+1) before packing.
  GpuSpec tiny;
  tiny.gpcs = 1;
  Cluster c(2, tiny);
  EXPECT_FALSE(c.Pack({2}).has_value());
  auto layout = PackWithRepair(c, {2});
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->AllInstanceSizes(), (std::vector<int>{1, 1}));
  EXPECT_EQ(UsedGpcs(*layout), 2);

  // Four such GPUs force the longest chain: 4 -> 3+1 -> 2+1+1 -> 1x4.
  Cluster c4(4, tiny);
  auto deep = PackWithRepair(c4, {4});
  ASSERT_TRUE(deep.has_value());
  EXPECT_EQ(deep->AllInstanceSizes(), (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(UsedGpcs(*deep), 4);
}

TEST(PackWithRepair, ExactCapacityFits) {
  // Direct exact-capacity fit: eight 7g instances fill 8 A100s to the GPC.
  Cluster full(8);
  auto layout = PackWithRepair(full, std::vector<int>(8, 7));
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(UsedGpcs(*layout), full.total_gpcs());

  // Exact capacity through repair: {4,4,4,1,1} = 14 GPCs on 2 GPUs only
  // packs after splitting one 4 into 3+1 ({4,3} | {4,1,1,1}).
  Cluster two(2);
  EXPECT_FALSE(two.Pack({4, 4, 4, 1, 1}).has_value());
  auto repaired = PackWithRepair(two, {4, 4, 4, 1, 1});
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(UsedGpcs(*repaired), two.total_gpcs());

  // Exact capacity in all-1s: fourteen 1g instances on 2 GPUs.
  auto ones = PackWithRepair(two, std::vector<int>(14, 1));
  ASSERT_TRUE(ones.has_value());
  EXPECT_EQ(UsedGpcs(*ones), 14);
}

TEST(PackWithRepair, OverCapacityInfeasibleEvenAfterFullRepair) {
  // One GPC over capacity: no split sequence can shed demand, so the
  // repair loop must terminate with nullopt (total GPCs are preserved by
  // every split).
  Cluster two(2);
  EXPECT_FALSE(PackWithRepair(two, {7, 7, 1}).has_value());
  EXPECT_FALSE(PackWithRepair(two, std::vector<int>(15, 1)).has_value());
  // Over capacity with splittable sizes only: still infeasible.
  EXPECT_FALSE(PackWithRepair(two, {4, 4, 4, 3}).has_value());
}

TEST(PackWithRepair, InvalidProfileSizeIsNotSilentlyDropped) {
  // 5 GPCs is not a MIG profile and has no split rule; the repair must
  // report infeasibility rather than erase the demand and "succeed" with
  // an emptier layout.
  Cluster c(2);
  EXPECT_FALSE(PackWithRepair(c, {5}).has_value());
  EXPECT_FALSE(PackWithRepair(c, {5, 1, 1}).has_value());
}

TEST(ClusterLayout, AllInstanceSizesSortedDescending) {
  Cluster c(2);
  auto layout = c.Pack({1, 7, 2, 3});
  ASSERT_TRUE(layout.has_value());
  const auto sizes = layout->AllInstanceSizes();
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end(), std::greater<int>()));
}

// Property: any multiset of total <= capacity made only of 1s and 2s packs.
class SmallSizesPackTest : public ::testing::TestWithParam<int> {};

TEST_P(SmallSizesPackTest, OnesAndTwosAlwaysPack) {
  const int twos = GetParam();
  Cluster c(4);  // 28 GPCs
  std::vector<int> sizes(static_cast<std::size_t>(twos), 2);
  const int remaining = 28 - 2 * twos;
  // A100 fits three 2g per GPU (slots 0,2,4) plus one 1g (slot 6): filling
  // the remainder with 1s stays feasible as long as per-GPU twos <= 3.
  for (int i = 0; i < remaining; ++i) sizes.push_back(1);
  EXPECT_TRUE(c.Pack(sizes).has_value()) << "twos=" << twos;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SmallSizesPackTest,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 10, 12));

}  // namespace
}  // namespace pe::hw
