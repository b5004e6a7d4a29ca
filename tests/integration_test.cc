// Cross-module integration tests: full pipeline from model zoo through
// profiling, PARIS partitioning, ELSA scheduling and simulation, asserting
// the paper's qualitative results end-to-end.
#include <gtest/gtest.h>

#include "core/experiment.h"

namespace pe {
namespace {

using core::MixConfig;
using core::MixTestbed;
using core::RunOptions;
using core::SchedulerKind;
using core::Table1Config;

// `kind` on `plan`, with a fresh scheduler, reduced at the testbed's SLA.
sim::ServerStats RunStats(const MixTestbed& tb,
                          const partition::PartitionPlan& plan,
                          SchedulerKind kind, const RunOptions& opt) {
  auto scheduler = tb.MakeScheduler(kind);
  return tb.Run(plan.instance_gpcs, *scheduler, opt).Stats(tb.sla_target());
}

// Paper Figure 5 / 10: on a heterogeneous server under tight SLA, ELSA
// yields fewer SLA violations than FIFS at the same load.
TEST(Integration, ElsaReducesViolationsOnHeterogeneousServer) {
  const MixTestbed tb(Table1Config("resnet"));
  const auto plan = tb.PlanMixed().plan;
  RunOptions opt;
  opt.num_queries = 6000;
  opt.rate_qps = 500.0;
  const auto fifs = RunStats(tb, plan, SchedulerKind::kFifs, opt);
  const auto elsa = RunStats(tb, plan, SchedulerKind::kElsa, opt);
  EXPECT_LT(elsa.sla_violation_rate, fifs.sla_violation_rate);
  EXPECT_LT(elsa.p95_latency_ms, fifs.p95_latency_ms);
}

// Paper Section IV-C: ELSA Step A prefers small partitions to keep
// utilization high; large batches still reach the large partitions.
TEST(Integration, ElsaRoutesBatchesBySize) {
  const MixTestbed tb(Table1Config("resnet"));
  const auto plan = tb.PlanMixed().plan;
  auto sched = tb.MakeScheduler(SchedulerKind::kElsa);
  RunOptions opt;
  opt.num_queries = 4000;
  opt.rate_qps = 300.0;
  const auto result = tb.Run(plan.instance_gpcs, *sched, opt);
  double small_batch_sum = 0, small_count = 0;
  double large_batch_sum = 0, large_count = 0;
  for (const auto& r : result.records) {
    if (r.worker_gpcs <= 2) {
      small_batch_sum += r.batch;
      ++small_count;
    } else if (r.worker_gpcs == 7) {
      large_batch_sum += r.batch;
      ++large_count;
    }
  }
  ASSERT_GT(small_count, 0);
  ASSERT_GT(large_count, 0);
  EXPECT_LT(small_batch_sum / small_count, large_batch_sum / large_count);
}

// Paper Figure 12 qualitative shape for every model: PARIS+ELSA beats
// GPU(7)+FIFS in latency-bounded throughput.
class Figure12ShapeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(Figure12ShapeTest, ParisElsaBeatsGpu7Fifs) {
  const MixTestbed tb(Table1Config(GetParam()));
  core::SearchOptions so;
  so.num_queries = 2000;
  so.iterations = 7;
  const double sla_ms = TicksToMs(tb.sla_target());
  const auto base = core::LatencyBoundedThroughput(
      tb, tb.PlanHomogeneous(7), SchedulerKind::kFifs, sla_ms, so);
  const auto ours = core::LatencyBoundedThroughput(
      tb, tb.PlanMixed().plan, SchedulerKind::kElsa, sla_ms, so);
  EXPECT_GT(ours.qps, base.qps) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllModels, Figure12ShapeTest,
                         ::testing::Values("shufflenet", "mobilenet",
                                           "resnet", "bert", "conformer"));

// Random partitioning + ELSA is competitive (paper Section VI-B) -- a lucky
// random draw can even win -- but PARIS+ELSA must beat the *average* random
// layout, which is what "systematic beats blind" means statistically.
TEST(Integration, ParisElsaBeatsAverageRandomElsa) {
  const MixTestbed tb(Table1Config("mobilenet"));
  core::SearchOptions so;
  so.num_queries = 2000;
  so.iterations = 7;
  const double sla_ms = TicksToMs(tb.sla_target());
  double random_sum = 0.0;
  const std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};
  for (std::uint64_t seed : kSeeds) {
    random_sum += core::LatencyBoundedThroughput(
                      tb, tb.PlanRandom(seed), SchedulerKind::kElsa, sla_ms,
                      so)
                      .qps;
  }
  const auto paris = core::LatencyBoundedThroughput(
      tb, tb.PlanMixed().plan, SchedulerKind::kElsa, sla_ms, so);
  EXPECT_GT(paris.qps, random_sum / std::size(kSeeds));
}

// Estimate/actual divergence: with execution-time noise the scheduler's
// predictions are imperfect but the system still functions and ELSA still
// beats FIFS.
TEST(Integration, RobustToLatencyNoise) {
  MixConfig c = Table1Config("resnet");
  c.latency_noise_sigma = 0.1;
  const MixTestbed tb(c);
  const auto plan = tb.PlanMixed().plan;
  RunOptions opt;
  opt.num_queries = 5000;
  opt.rate_qps = 500.0;
  const auto fifs = RunStats(tb, plan, SchedulerKind::kFifs, opt);
  const auto elsa = RunStats(tb, plan, SchedulerKind::kElsa, opt);
  EXPECT_EQ(elsa.completed + fifs.completed > 0, true);
  EXPECT_LT(elsa.p95_latency_ms, fifs.p95_latency_ms);
}

// Work conservation under overload: the server still completes every query
// and per-GPC utilization approaches saturation on the loaded classes.
TEST(Integration, OverloadStillCompletesAllQueries) {
  const MixTestbed tb(Table1Config("mobilenet"));
  const auto plan = tb.PlanMixed().plan;
  auto sched = tb.MakeScheduler(SchedulerKind::kElsa);
  RunOptions opt;
  opt.num_queries = 3000;
  opt.rate_qps = 1e5;  // far beyond capacity
  const auto result = tb.Run(plan.instance_gpcs, *sched, opt);
  for (const auto& r : result.records) {
    EXPECT_GT(r.finished, 0);
  }
  const auto stats = result.Stats(tb.sla_target());
  EXPECT_GT(stats.mean_worker_utilization, 0.5);
}

// The frontend bottleneck the paper describes for MobileNet at 48 GPCs
// (Section V): with a constrained frontend, adding backend GPCs does not
// increase goodput.
TEST(Integration, FrontendBottleneckCapsThroughput) {
  MixConfig c = Table1Config("mobilenet");
  c.frontend.enabled = true;
  c.frontend.lanes = 4;
  c.frontend.cost_per_query = MsToTicks(1.0);  // cap: 4000 qps across lanes
  const MixTestbed tb(c);
  const auto plan = tb.PlanHomogeneous(1);
  auto sched = tb.MakeScheduler(SchedulerKind::kFifs);
  RunOptions opt;
  opt.num_queries = 4000;
  opt.rate_qps = 1e4;  // above the frontend cap
  const auto result = tb.Run(plan.instance_gpcs, *sched, opt);
  const auto stats = result.Stats(tb.sla_target(), 0.0);
  EXPECT_LE(stats.achieved_qps, 4200.0);
}

// Bit-exact reproducibility of a full experiment across separately
// constructed testbeds (determinism is a stated design requirement).
TEST(Integration, FullPipelineBitReproducible) {
  auto run_once = [] {
    const MixTestbed tb(Table1Config("bert"));
    RunOptions opt;
    opt.num_queries = 1000;
    opt.rate_qps = 100.0;
    opt.seed = 77;
    return RunStats(tb, tb.PlanMixed().plan, SchedulerKind::kElsa, opt);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.p95_latency_ms, b.p95_latency_ms);
  EXPECT_DOUBLE_EQ(a.achieved_qps, b.achieved_qps);
  EXPECT_DOUBLE_EQ(a.mean_worker_utilization, b.mean_worker_utilization);
}

}  // namespace
}  // namespace pe
