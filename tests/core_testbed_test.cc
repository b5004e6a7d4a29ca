// The single-server testbed as the paper's evaluation uses it: one model
// on its Table-I server (core::Table1Config), plus the config checks every
// MixTestbed runs.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "core/mix_runner.h"
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

// MixTestbed::PlanHomogeneous gives GPU(7) the whole cluster, which is
// Table I's GPU(7) column on every row.
TEST(PaperConfig, Gpu7BudgetIsTheWholeCluster) {
  for (const ModelServerConfig& row : PaperTable1()) {
    EXPECT_EQ(row.gpc_budget_gpu7, row.num_gpus * 7) << row.model;
  }
}

TEST(Table1Testbed, ConfigIsTheTable1RowWithPaperDefaults) {
  const MixConfig c = Table1Config("bert");
  ASSERT_EQ(c.models.size(), 1u);
  EXPECT_EQ(c.models[0].model, "bert");
  EXPECT_EQ(c.models[0].share, 1.0);
  EXPECT_EQ(c.models[0].dist_median, 6.0);
  EXPECT_EQ(c.models[0].dist_sigma, 0.9);
  EXPECT_EQ(c.max_batch, 32);
  EXPECT_EQ(c.sla_n, 1.5);
  EXPECT_EQ(c.num_gpus, 6);
  EXPECT_EQ(c.gpc_budget, 42);
  EXPECT_EQ(c.swap_cost_us, 0.0);
  EXPECT_FALSE(c.frontend.enabled);
}

class Table1TestbedFixture : public ::testing::Test {
 protected:
  static const MixTestbed& tb() {
    static const MixTestbed instance{Table1Config("resnet")};
    return instance;
  }
};

TEST_F(Table1TestbedFixture, SlaRuleIsNTimesGpu7MaxBatch) {
  const double base = tb().repertoire().profile(0).LatencySec(7, 32);
  EXPECT_NEAR(TicksToSec(tb().sla_target()), 1.5 * base, 1e-9);
}

TEST_F(Table1TestbedFixture, Gpu7GetsTheWholeCluster) {
  EXPECT_EQ(tb().PlanHomogeneous(7).TotalGpcs(), 56);
  EXPECT_EQ(tb().PlanHomogeneous(3).TotalGpcs(), 48);
  EXPECT_EQ(tb().PlanHomogeneous(1).TotalGpcs(), 48);
  EXPECT_EQ(tb().PlanRandom().TotalGpcs(), 48);
}

TEST_F(Table1TestbedFixture, HomogeneousPlansMatchTable1) {
  EXPECT_EQ(tb().PlanHomogeneous(1).NumInstances(), 48);
  EXPECT_EQ(tb().PlanHomogeneous(2).NumInstances(), 24);
  EXPECT_EQ(tb().PlanHomogeneous(3).NumInstances(), 16);
  EXPECT_EQ(tb().PlanHomogeneous(7).NumInstances(), 8);
}

TEST_F(Table1TestbedFixture, ParisPlanIsHeterogeneousForResnet) {
  const auto mixed = tb().PlanMixed();
  ASSERT_EQ(mixed.budgets.size(), 1u);
  EXPECT_EQ(mixed.budgets[0], 48);  // the one model gets the whole budget
  const auto& plan = mixed.plan;
  std::set<int> sizes(plan.instance_gpcs.begin(), plan.instance_gpcs.end());
  EXPECT_GT(sizes.size(), 1u);
  EXPECT_LE(plan.TotalGpcs(), 48);
}

TEST_F(Table1TestbedFixture, SchedulerFactoryProducesAllKinds) {
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kFifs)->name(), "FIFS");
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kElsa)->name(), "ELSA");
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kJsq)->name(), "JSQ");
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kGreedyFastest)->name(),
            "GreedyFastest");
}

TEST_F(Table1TestbedFixture, RunProducesCompleteRecords) {
  const auto plan = tb().PlanHomogeneous(7);
  auto sched = tb().MakeScheduler(SchedulerKind::kFifs);
  RunOptions opt;
  opt.rate_qps = 200.0;
  opt.num_queries = 500;
  const auto result = tb().Run(plan.instance_gpcs, *sched, opt);
  ASSERT_EQ(result.records.size(), 500u);
  for (const auto& r : result.records) {
    EXPECT_GT(r.finished, r.arrival);
    EXPECT_GE(r.worker, 0);
    EXPECT_EQ(r.model, 0);
  }
}

TEST_F(Table1TestbedFixture, RunIsDeterministic) {
  const auto plan = tb().PlanMixed().plan;
  RunOptions opt;
  opt.rate_qps = 300.0;
  opt.num_queries = 400;
  opt.seed = 99;
  const auto run = [&] {
    auto sched = tb().MakeScheduler(SchedulerKind::kElsa);
    return tb().Run(plan.instance_gpcs, *sched, opt).Stats(tb().sla_target());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.p95_latency_ms, b.p95_latency_ms);
  EXPECT_DOUBLE_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.completed, b.completed);
}

TEST_F(Table1TestbedFixture, ActualLatencyOutlivesTestbed) {
  profile::ModelRepertoire repertoire;
  {
    const MixTestbed local(Table1Config("mobilenet"));
    repertoire = local.repertoire();
  }
  // Its ground-truth function must not dangle.
  EXPECT_GT(repertoire.ActualSec(0, 7, 8), 0.0);
}

TEST_F(Table1TestbedFixture, RejectsEmptyPlan) {
  auto sched = tb().MakeScheduler(SchedulerKind::kFifs);
  EXPECT_THROW(tb().Run({}, *sched, RunOptions{}), std::invalid_argument);
}

TEST(Table1Testbed, SchedulerKindNames) {
  EXPECT_STREQ(ToString(SchedulerKind::kFifs), "FIFS");
  EXPECT_STREQ(ToString(SchedulerKind::kElsa), "ELSA");
}

TEST(Table1Testbed, UnknownModelThrows) {
  EXPECT_THROW(Table1Config("alexnet"), std::invalid_argument);
  MixConfig c;
  c.models.push_back({.model = "alexnet"});
  EXPECT_THROW(MixTestbed{c}, std::invalid_argument);
}

// Every MixTestbed rejects a bad config up front, naming the field.
void ExpectRejected(const MixConfig& config, const std::string& field) {
  try {
    const MixTestbed tb(config);
    ADD_FAILURE() << field << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(Table1Testbed, RejectsBadConfigFieldsNamingThem) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const MixConfig ok = Table1Config("mobilenet");
  for (const double v : {kNan, kInf, -1.0, 0.0}) {
    MixConfig c = ok;
    c.sla_n = v;
    ExpectRejected(c, "sla_n");
  }
  MixConfig gpus = ok;
  gpus.num_gpus = 0;
  ExpectRejected(gpus, "num_gpus");
  MixConfig budget = ok;
  budget.gpc_budget = 0;
  ExpectRejected(budget, "gpc_budget");
  for (const double v : {kNan, kInf, -1.0}) {
    MixConfig swap = ok;
    swap.swap_cost_us = v;
    ExpectRejected(swap, "swap_cost_us");
    MixConfig noise = ok;
    noise.latency_noise_sigma = v;
    ExpectRejected(noise, "latency_noise_sigma");
  }
}

}  // namespace
}  // namespace pe::core
