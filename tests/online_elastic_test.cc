// Tests for the online elastic re-partitioning extension: traffic
// estimation, drift-triggered repartitioning, and the epoch simulator.
#include <gtest/gtest.h>

#include <algorithm>

#include "online/elastic_server.h"
#include "online/repartition_controller.h"
#include "online/traffic_estimator.h"
#include "partition/paris.h"
#include "profile/model_repertoire.h"
#include "sched/elsa.h"
#include "workload/scenario.h"

namespace pe::online {
namespace {

TEST(TrafficEstimator, EmptyState) {
  TrafficEstimator est(32);
  EXPECT_EQ(est.count(), 0u);
  const auto pmf = est.ModelPmf(0);
  EXPECT_EQ(pmf.size(), 33u);
  for (double p : pmf) EXPECT_EQ(p, 0.0);
}

TEST(TrafficEstimator, CountsObservations) {
  TrafficEstimator est(8);
  est.Observe(0, 2);
  est.Observe(0, 2);
  est.Observe(0, 4);
  const auto pmf = est.ModelPmf(0);
  EXPECT_NEAR(pmf[2], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(pmf[4], 1.0 / 3.0, 1e-12);
  EXPECT_EQ(est.count(), 3u);
}

TEST(TrafficEstimator, ClampsOutOfRange) {
  TrafficEstimator est(8);
  est.Observe(0, 100);
  est.Observe(0, 0);
  est.Observe(0, -3);
  const auto pmf = est.ModelPmf(0);
  EXPECT_NEAR(pmf[8], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(pmf[1], 2.0 / 3.0, 1e-12);
}

TEST(TrafficEstimator, SlidingWindowEvicts) {
  TrafficEstimator est(8, /*window=*/4);
  for (int i = 0; i < 4; ++i) est.Observe(0, 1);
  for (int i = 0; i < 4; ++i) est.Observe(0, 8);
  EXPECT_EQ(est.count(), 4u);
  const auto pmf = est.ModelPmf(0);
  EXPECT_EQ(pmf[1], 0.0);  // fully evicted
  EXPECT_DOUBLE_EQ(pmf[8], 1.0);
}

TEST(TrafficEstimator, TotalVariationProperties) {
  TrafficEstimator est(4);
  est.Observe(0, 1);
  // Identical PMFs -> 0; disjoint -> 1.
  EXPECT_NEAR(TotalVariation(est.ModelPmf(0), est.ModelPmf(0)), 0.0, 1e-12);
  std::vector<double> disjoint(5, 0.0);
  disjoint[4] = 1.0;
  EXPECT_NEAR(TotalVariation(est.ModelPmf(0), disjoint), 1.0, 1e-12);
  // The shorter vector is zero-padded, in either argument position.
  EXPECT_DOUBLE_EQ(TotalVariation({0.0, 1.0}, {0.0, 0.5, 0.5}), 0.5);
  EXPECT_DOUBLE_EQ(TotalVariation({0.0, 0.5, 0.5}, {0.0, 1.0}), 0.5);
}

TEST(TrafficEstimator, InvalidConstruction) {
  EXPECT_THROW(TrafficEstimator(0), std::invalid_argument);
  EXPECT_THROW(TrafficEstimator(8, 0), std::invalid_argument);
}

class ControllerFixture : public ::testing::Test {
 protected:
  // ResNet-50 as the one model: its profile and its roofline ground truth.
  static const profile::ModelRepertoire& Repertoire() {
    static const profile::ModelRepertoire rep =
        profile::BuildZooRepertoire({"resnet"});
    return rep;
  }
  static const profile::ProfileTable& Profile() {
    return Repertoire().profile(0);
  }

  // The single-model controller: a one-component mix.
  static RepartitionController MakeController(ElasticConfig config = {}) {
    static const workload::LogNormalBatchDist initial(4.0, 0.6, 32);
    return RepartitionController(
        Repertoire(), hw::Cluster(8), 48,
        {{.model_id = 0, .share = 1.0, .profile = &Profile(),
          .dist = &initial}},
        partition::ParisConfig{}, config);
  }
};

// One model on the full budget is exactly PARIS: the one-component mix
// plans the layout ParisPartitioner derives from the same distribution.
TEST_F(ControllerFixture, OneModelPlanIsParisOnTheFullBudget) {
  const auto controller = MakeController();
  const workload::LogNormalBatchDist initial(4.0, 0.6, 32);
  auto paris = partition::ParisPartitioner(Profile(), initial)
                   .Plan(hw::Cluster(8), 48)
                   .instance_gpcs;
  auto planned = controller.current_plan().instance_gpcs;
  std::sort(paris.begin(), paris.end());
  std::sort(planned.begin(), planned.end());
  EXPECT_EQ(planned, paris);
  ASSERT_EQ(controller.current_budgets().size(), 1u);
  EXPECT_EQ(controller.current_budgets()[0], 48);
}

TEST_F(ControllerFixture, InitialPlanFromSeedDistribution) {
  auto controller = MakeController();
  EXPECT_GT(controller.current_plan().NumInstances(), 0);
  EXPECT_LE(controller.current_plan().TotalGpcs(), 48);
}

TEST_F(ControllerFixture, NoRepartitionBelowMinObservations) {
  ElasticConfig config;
  config.min_observations = 100;
  auto controller = MakeController(config);
  TrafficEstimator est(32);
  for (int i = 0; i < 50; ++i) est.Observe(0, 32);  // wildly drifted but few
  EXPECT_FALSE(controller.MaybeRepartition(est).has_value());
}

TEST_F(ControllerFixture, NoRepartitionWithoutDrift) {
  auto controller = MakeController();
  TrafficEstimator est(32);
  // Feed traffic matching the seed distribution.
  workload::LogNormalBatchDist seed(4.0, 0.6, 32);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) est.Observe(0, seed.Sample(rng));
  EXPECT_LT(controller.DriftOf(est), 0.1);
  EXPECT_FALSE(controller.MaybeRepartition(est).has_value());
}

TEST_F(ControllerFixture, RepartitionsOnLargeDrift) {
  auto controller = MakeController();
  const auto before = controller.current_plan().instance_gpcs;
  TrafficEstimator est(32);
  // Drift to consistently large batches: demands bigger partitions.
  workload::LogNormalBatchDist drifted(24.0, 0.4, 32);
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) est.Observe(0, drifted.Sample(rng));
  EXPECT_GT(controller.DriftOf(est), 0.3);
  const auto new_plan = controller.MaybeRepartition(est);
  ASSERT_TRUE(new_plan.has_value());
  EXPECT_NE(new_plan->instance_gpcs, before);
  // Larger batches -> larger mean partition size.
  auto mean = [](const std::vector<int>& v) {
    double s = 0;
    for (int g : v) s += g;
    return s / static_cast<double>(v.size());
  };
  EXPECT_GT(mean(new_plan->instance_gpcs), mean(before));
}

TEST_F(ControllerFixture, DriftResetAfterCommit) {
  auto controller = MakeController();
  TrafficEstimator est(32);
  workload::LogNormalBatchDist drifted(24.0, 0.4, 32);
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) est.Observe(0, drifted.Sample(rng));
  ASSERT_TRUE(controller.MaybeRepartition(est).has_value());
  // Same traffic again: no further drift, no second reconfiguration.
  EXPECT_LT(controller.DriftOf(est), 0.05);
  EXPECT_FALSE(controller.MaybeRepartition(est).has_value());
}

// The elastic simulator is a thin controller over ONE continuous
// InferenceServer run: with drift-triggered repartitioning disabled, its
// per-query records must be bit-identical to a plain static Run of the
// same trace on the initial layout with the same seed.
TEST_F(ControllerFixture, DriftFreeRunMatchesStaticServerBitIdentical) {
  ElasticConfig config;
  config.drift_threshold = 2.0;  // unreachable: never repartitions
  auto controller = MakeController(config);

  workload::ScenarioSpec steady;
  steady.rate.base_qps = 250.0;
  steady.components.resize(1);
  steady.components[0].median = 4.0;
  steady.components[0].sigma = 0.6;
  const auto trace = workload::GenerateScenarioTrace(steady, 3000, 9);

  const auto& rep = Repertoire();
  const SimTime sla = SecToTicks(1.5 * Profile().LatencySec(7, 32));
  const std::uint64_t seed = 0xABCD;

  ElasticServerSim elastic(
      controller, rep,
      [&] { return std::make_unique<sched::ElsaScheduler>(rep, sla); }, sla,
      /*queries_per_epoch=*/500, seed);
  const auto elastic_result = elastic.Run(trace);
  EXPECT_EQ(elastic_result.reconfigurations, 0);
  EXPECT_EQ(elastic_result.total.reconfig_stalled, 0u);

  sim::ServerConfig sc;
  sc.partition_gpcs = controller.current_plan().instance_gpcs;
  sc.sla_target = sla;
  sc.seed = seed;
  sched::ElsaScheduler elsa(rep, sla);
  sim::InferenceServer server(sc, rep, elsa);
  const auto static_result = server.Run(trace);

  // Recompute the elastic totals from the static records: identical
  // records imply identical aggregate stats.
  const auto static_total =
      sim::ComputeStats(static_result.records, sla, /*warmup_fraction=*/0.0);
  EXPECT_EQ(elastic_result.total.completed, static_total.completed);
  EXPECT_DOUBLE_EQ(elastic_result.total.p95_latency_ms,
                   static_total.p95_latency_ms);
  // And assert it record by record (the memcmp-level contract).
  // ElasticResult does not expose records, so replay the elastic sim's
  // exact driving pattern (inject everything, advance in epoch chunks)
  // and compare per-query records against the batch Run.
  sched::ElsaScheduler elsa2(rep, sla);
  sim::InferenceServer continuous(sc, rep, elsa2);
  continuous.InjectTrace(trace);
  for (std::size_t begin = 500; begin < trace.size(); begin += 500) {
    continuous.AdvanceTo(trace.queries()[begin].arrival);
  }
  const auto continuous_result = continuous.Finish();
  ASSERT_EQ(continuous_result.records.size(), static_result.records.size());
  for (std::size_t i = 0; i < static_result.records.size(); ++i) {
    const auto& s = static_result.records[i];
    const auto& c = continuous_result.records[i];
    EXPECT_EQ(s.dispatched, c.dispatched) << "query " << i;
    EXPECT_EQ(s.started, c.started) << "query " << i;
    EXPECT_EQ(s.finished, c.finished) << "query " << i;
    EXPECT_EQ(s.worker, c.worker) << "query " << i;
    EXPECT_EQ(s.reconfig_stalls, c.reconfig_stalls) << "query " << i;
  }
}

// Same trace, same seed: elastic runs are reproducible end-to-end now
// that the seed is plumbed through instead of hard-coded.
TEST_F(ControllerFixture, SameSeedSameResult) {
  const workload::LogNormalBatchDist small(3.0, 0.5, 32);
  const workload::LogNormalBatchDist large(20.0, 0.4, 32);
  const auto trace = workload::GeneratePhasedTrace(
      300.0, {{&small, 2000}, {&large, 2000}}, 4000, 6);

  const auto& rep = Repertoire();
  const SimTime sla = SecToTicks(1.5 * Profile().LatencySec(7, 32));

  auto run_once = [&] {
    ElasticConfig config;
    config.min_observations = 400;
    config.drift_threshold = 0.15;
    auto controller = MakeController(config);
    ElasticServerSim sim(
        controller, rep,
        [&] { return std::make_unique<sched::ElsaScheduler>(rep, sla); }, sla,
        /*queries_per_epoch=*/1000, /*seed=*/42);
    return sim.Run(trace);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.reconfigurations, b.reconfigurations);
  EXPECT_EQ(a.total.reconfig_stalled, b.total.reconfig_stalled);
  EXPECT_DOUBLE_EQ(a.total.p95_latency_ms, b.total.p95_latency_ms);
  EXPECT_DOUBLE_EQ(a.total.mean_latency_ms, b.total.mean_latency_ms);
}

TEST_F(ControllerFixture, ElasticServerTracksDriftingWorkload) {
  ElasticConfig config;
  config.min_observations = 400;
  config.drift_threshold = 0.15;
  auto controller = MakeController(config);

  // Build a drifting trace: small-batch phase then large-batch phase.
  const workload::LogNormalBatchDist small(3.0, 0.5, 32);
  const workload::LogNormalBatchDist large(20.0, 0.4, 32);
  const auto trace = workload::GeneratePhasedTrace(
      300.0, {{&small, 4000}, {&large, 4000}}, 8000, 6);

  const auto& rep = Repertoire();
  const SimTime sla = SecToTicks(1.5 * Profile().LatencySec(7, 32));
  ElasticServerSim sim(
      controller, rep,
      [&] { return std::make_unique<sched::ElsaScheduler>(rep, sla); }, sla,
      /*queries_per_epoch=*/1000);
  const auto result = sim.Run(trace);

  EXPECT_EQ(result.total.completed, trace.size());
  EXPECT_GE(result.reconfigurations, 1);
  EXPECT_EQ(result.epochs.size(), 8u);
  // Reconfigurations are simulated live: the downtime window must have
  // held queries, visible in the stall metric (totals and per epoch).
  EXPECT_GT(result.total.reconfig_stalled, 0u);
  std::size_t epoch_stalled = 0;
  for (const auto& ep : result.epochs) epoch_stalled += ep.stalled;
  EXPECT_EQ(epoch_stalled, result.total.reconfig_stalled);
  // After adapting, the final layout must be bigger-partitioned than the
  // initial one.
  auto mean = [](const std::vector<int>& v) {
    double s = 0;
    for (int g : v) s += g;
    return s / static_cast<double>(v.size());
  };
  EXPECT_GT(mean(result.epochs.back().layout),
            mean(result.epochs.front().layout));
}

// Out-of-range simulator arguments are rejected in every build type: a
// zero epoch length would divide by zero in Run, and a negative swap cost
// would shorten service.
TEST_F(ControllerFixture, ElasticServerRejectsBadArguments) {
  auto controller = MakeController();
  const auto& rep = Repertoire();
  const SimTime sla = SecToTicks(1.5 * Profile().LatencySec(7, 32));
  const SchedulerFactory elsa = [&] {
    return std::make_unique<sched::ElsaScheduler>(rep, sla);
  };
  EXPECT_THROW(ElasticServerSim(controller, rep, elsa, sla,
                                /*queries_per_epoch=*/0),
               std::invalid_argument);
  EXPECT_THROW(ElasticServerSim(controller, rep, elsa, sla,
                                /*queries_per_epoch=*/100, /*seed=*/1,
                                /*model_swap_cost=*/-1),
               std::invalid_argument);
  EXPECT_NO_THROW(ElasticServerSim(controller, rep, elsa, sla,
                                   /*queries_per_epoch=*/1, /*seed=*/1,
                                   /*model_swap_cost=*/0));
}

}  // namespace
}  // namespace pe::online
