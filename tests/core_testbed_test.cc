#include "core/server_builder.h"

#include <gtest/gtest.h>

#include "core/paper_config.h"

namespace pe::core {
namespace {

TEST(PaperConfig, Table1RowsMatchPaper) {
  const auto& table = PaperTable1();
  ASSERT_EQ(table.size(), 5u);
  EXPECT_EQ(Table1For("shufflenet").gpc_budget, 24);
  EXPECT_EQ(Table1For("mobilenet").gpc_budget, 24);
  EXPECT_EQ(Table1For("mobilenet").gpc_budget_gpu7, 28);
  EXPECT_EQ(Table1For("resnet").gpc_budget, 48);
  EXPECT_EQ(Table1For("resnet").gpc_budget_gpu7, 56);
  EXPECT_EQ(Table1For("bert").gpc_budget, 42);
  EXPECT_EQ(Table1For("bert").gpc_budget_gpu7, 42);
  EXPECT_EQ(Table1For("bert").num_gpus, 6);
  EXPECT_EQ(Table1For("conformer").num_gpus, 8);
  EXPECT_THROW(Table1For("vgg"), std::invalid_argument);
}

class TestbedFixture : public ::testing::Test {
 protected:
  static const Testbed& tb() {
    static const Testbed instance{[] {
      TestbedConfig c;
      c.model_name = "resnet";
      return c;
    }()};
    return instance;
  }
};

TEST_F(TestbedFixture, SlaRuleIsNTimesGpu7MaxBatch) {
  const double base = tb().profile().LatencySec(7, 32);
  EXPECT_NEAR(TicksToSec(tb().sla_target()), 1.5 * base, 1e-9);
}

TEST_F(TestbedFixture, BudgetForGpu7UsesWiderBudget) {
  EXPECT_EQ(tb().BudgetFor(7), 56);
  EXPECT_EQ(tb().BudgetFor(3), 48);
  EXPECT_EQ(tb().BudgetFor(1), 48);
}

TEST_F(TestbedFixture, HomogeneousPlansMatchTable1) {
  EXPECT_EQ(tb().PlanHomogeneous(1).NumInstances(), 48);
  EXPECT_EQ(tb().PlanHomogeneous(2).NumInstances(), 24);
  EXPECT_EQ(tb().PlanHomogeneous(3).NumInstances(), 16);
  EXPECT_EQ(tb().PlanHomogeneous(7).NumInstances(), 8);
}

TEST_F(TestbedFixture, ParisPlanIsHeterogeneousForResnet) {
  const auto plan = tb().PlanParis();
  std::set<int> sizes(plan.instance_gpcs.begin(), plan.instance_gpcs.end());
  EXPECT_GT(sizes.size(), 1u);
  EXPECT_LE(plan.TotalGpcs(), 48);
}

TEST_F(TestbedFixture, SchedulerFactoryProducesAllKinds) {
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kFifs)->name(), "FIFS");
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kElsa)->name(), "ELSA");
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kJsq)->name(), "JSQ");
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kGreedyFastest)->name(),
            "GreedyFastest");
}

TEST_F(TestbedFixture, RunProducesCompleteRecords) {
  const auto plan = tb().PlanHomogeneous(7);
  auto sched = tb().MakeScheduler(SchedulerKind::kFifs);
  RunOptions opt;
  opt.rate_qps = 200.0;
  opt.num_queries = 500;
  const auto result = tb().Run(plan, *sched, opt);
  ASSERT_EQ(result.records.size(), 500u);
  for (const auto& r : result.records) {
    EXPECT_GT(r.finished, r.arrival);
    EXPECT_GE(r.worker, 0);
  }
}

TEST_F(TestbedFixture, RunIsDeterministic) {
  const auto plan = tb().PlanParis();
  RunOptions opt;
  opt.rate_qps = 300.0;
  opt.num_queries = 400;
  opt.seed = 99;
  const auto a = tb().RunStats(plan, SchedulerKind::kElsa, opt);
  const auto b = tb().RunStats(plan, SchedulerKind::kElsa, opt);
  EXPECT_DOUBLE_EQ(a.p95_latency_ms, b.p95_latency_ms);
  EXPECT_DOUBLE_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.completed, b.completed);
}

TEST_F(TestbedFixture, ActualLatencyOutlivesTestbed) {
  sim::LatencyFn fn;
  {
    TestbedConfig c;
    c.model_name = "mobilenet";
    Testbed local(c);
    fn = local.repertoire().actual(0);
  }
  EXPECT_GT(fn(7, 8), 0.0);  // must not dangle
}

TEST_F(TestbedFixture, RejectsEmptyPlan) {
  partition::PartitionPlan empty;
  auto sched = tb().MakeScheduler(SchedulerKind::kFifs);
  EXPECT_THROW(tb().Run(empty, *sched, RunOptions{}), std::invalid_argument);
}

TEST(Testbed, SchedulerKindNames) {
  EXPECT_STREQ(ToString(SchedulerKind::kFifs), "FIFS");
  EXPECT_STREQ(ToString(SchedulerKind::kElsa), "ELSA");
}

TEST(Testbed, UnknownModelThrows) {
  TestbedConfig c;
  c.model_name = "alexnet";
  EXPECT_THROW(Testbed tb(c), std::invalid_argument);
}

}  // namespace
}  // namespace pe::core
