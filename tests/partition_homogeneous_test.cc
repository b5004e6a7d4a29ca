#include "partition/homogeneous.h"

#include <gtest/gtest.h>

#include <numeric>

namespace pe::partition {
namespace {

TEST(Homogeneous, Gpu1FillsBudget) {
  hw::Cluster cluster(4);  // 28 GPCs
  HomogeneousPartitioner p(1);
  const auto plan = p.Plan(cluster, 24);
  EXPECT_EQ(plan.NumInstances(), 24);
  EXPECT_EQ(plan.TotalGpcs(), 24);
  for (int g : plan.instance_gpcs) EXPECT_EQ(g, 1);
}

TEST(Homogeneous, Gpu7OnePerGpu) {
  hw::Cluster cluster(8);
  HomogeneousPartitioner p(7);
  const auto plan = p.Plan(cluster, 56);
  EXPECT_EQ(plan.NumInstances(), 8);
  EXPECT_EQ(plan.TotalGpcs(), 56);
}

TEST(Homogeneous, Gpu4LimitedByPlacementNotBudget) {
  // Table I's GPU(4) caveat: one GPU(4) per A100, stranding 3 GPCs.
  hw::Cluster cluster(8);
  HomogeneousPartitioner p(4);
  const auto plan = p.Plan(cluster, 56);
  EXPECT_EQ(plan.NumInstances(), 8);   // not 14 = 56/4
  EXPECT_EQ(plan.TotalGpcs(), 32);
}

TEST(Homogeneous, Gpu2ThreePerGpu) {
  hw::Cluster cluster(4);
  HomogeneousPartitioner p(2);
  const auto plan = p.Plan(cluster, 24);
  EXPECT_EQ(plan.NumInstances(), 12);
  EXPECT_EQ(plan.TotalGpcs(), 24);
}

TEST(Homogeneous, Gpu3TwoPerGpu) {
  hw::Cluster cluster(8);
  HomogeneousPartitioner p(3);
  const auto plan = p.Plan(cluster, 48);
  EXPECT_EQ(plan.NumInstances(), 16);
  EXPECT_EQ(plan.TotalGpcs(), 48);
}

TEST(Homogeneous, PaperTable1InstanceCounts) {
  // Table I: ResNet row -- 48 GPU(1), 24 GPU(2), 16 GPU(3), 8 GPU(7).
  hw::Cluster cluster(8);
  EXPECT_EQ(HomogeneousPartitioner(1).Plan(cluster, 48).NumInstances(), 48);
  EXPECT_EQ(HomogeneousPartitioner(2).Plan(cluster, 48).NumInstances(), 24);
  EXPECT_EQ(HomogeneousPartitioner(3).Plan(cluster, 48).NumInstances(), 16);
  EXPECT_EQ(HomogeneousPartitioner(7).Plan(cluster, 56).NumInstances(), 8);
}

TEST(Homogeneous, BudgetSmallerThanClusterRespected) {
  hw::Cluster cluster(8);  // 56 GPCs available
  HomogeneousPartitioner p(7);
  const auto plan = p.Plan(cluster, 42);  // BERT row
  EXPECT_EQ(plan.NumInstances(), 6);
}

TEST(Homogeneous, InvalidSizeThrows) {
  EXPECT_THROW(HomogeneousPartitioner(5), std::invalid_argument);
  EXPECT_THROW(HomogeneousPartitioner(0), std::invalid_argument);
}

TEST(Homogeneous, BudgetBelowOneInstanceThrows) {
  hw::Cluster cluster(1);
  HomogeneousPartitioner p(7);
  EXPECT_THROW(p.Plan(cluster, 3), std::runtime_error);
}

TEST(PartitionPlan, SummaryGroupsBySize) {
  hw::Cluster cluster(2);
  const auto plan = MakePlan(cluster, {7, 3, 3, 1}, "test");
  EXPECT_EQ(plan.Summary(), "1xGPU(7) 2xGPU(3) 1xGPU(1)");
}

TEST(MakePlan, ThrowsWhenInfeasible) {
  hw::Cluster cluster(1);
  EXPECT_THROW(MakePlan(cluster, {7, 7}, "too big"), std::runtime_error);
}

}  // namespace
}  // namespace pe::partition
