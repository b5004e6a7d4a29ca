// Tests for the multi-model online path: per-model traffic estimation and
// the repartition controller reacting to drift in the *mix*, driven
// end-to-end through the continuous elastic simulator.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "online/elastic_server.h"
#include "online/repartition_controller.h"
#include "online/traffic_estimator.h"
#include "profile/model_repertoire.h"
#include "sched/elsa.h"
#include "workload/batch_dist.h"
#include "workload/scenario.h"

namespace pe::online {
namespace {

TEST(TrafficEstimatorMix, TracksPerModelSharesAndPmfs) {
  TrafficEstimator est(8);
  for (int i = 0; i < 30; ++i) est.Observe(0, 2);
  for (int i = 0; i < 10; ++i) est.Observe(1, 8);
  EXPECT_EQ(est.count(), 40u);
  EXPECT_EQ(est.ModelCount(0), 30u);
  EXPECT_EQ(est.ModelCount(1), 10u);
  EXPECT_EQ(est.ModelCount(5), 0u);

  const auto shares = est.ModelShares();
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_DOUBLE_EQ(shares[0], 0.75);
  EXPECT_DOUBLE_EQ(shares[1], 0.25);
  // Padding to a larger model universe.
  EXPECT_EQ(est.ModelShares(4).size(), 4u);

  const auto pmf0 = est.ModelPmf(0);
  EXPECT_DOUBLE_EQ(pmf0[2], 1.0);
  const auto pmf1 = est.ModelPmf(1);
  EXPECT_DOUBLE_EQ(pmf1[8], 1.0);
  // A model without observations has an all-zero PMF.
  for (double p : est.ModelPmf(3)) EXPECT_EQ(p, 0.0);
  EXPECT_THROW(est.Observe(-1, 4), std::invalid_argument);
}

TEST(TrafficEstimatorMix, EvictionAndShareDrift) {
  TrafficEstimator est(8, /*window=*/10);
  for (int i = 0; i < 10; ++i) est.Observe(0, 2);
  EXPECT_DOUBLE_EQ(TotalVariation(est.ModelShares(2), {1.0, 0.0}), 0.0);
  // Model 1 floods the window: shares flip, old observations evict.
  for (int i = 0; i < 10; ++i) est.Observe(1, 4);
  EXPECT_EQ(est.ModelCount(0), 0u);
  EXPECT_EQ(est.ModelCount(1), 10u);
  EXPECT_DOUBLE_EQ(TotalVariation(est.ModelShares(2), {1.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(TotalVariation(est.ModelShares(2), {0.0, 1.0}), 0.0);
  // Empty estimator: shares are all-zero, so drift vs any baseline is
  // half the baseline's mass; the controller never acts on it below
  // min_observations.
  const TrafficEstimator empty(8);
  EXPECT_DOUBLE_EQ(TotalVariation(empty.ModelShares(2), {0.0, 1.0}), 0.5);
}

class MixedControllerFixture : public ::testing::Test {
 protected:
  static const profile::ModelRepertoire& Repertoire() {
    static const profile::ModelRepertoire rep =
        profile::BuildZooRepertoire({"resnet", "mobilenet"});
    return rep;
  }

  // 50/50 provisioning guess with moderate batch sizes for both models.
  static RepartitionController MakeController(ElasticConfig config = {}) {
    static const workload::LogNormalBatchDist heavy(6.0, 0.6, 32);
    static const workload::LogNormalBatchDist light(4.0, 0.6, 32);
    return RepartitionController(
        Repertoire(), hw::Cluster(8), 48,
        {{.model_id = 0, .share = 0.5, .dist = &heavy},
         {.model_id = 1, .share = 0.5, .dist = &light}},
        partition::ParisConfig{}, config);
  }
};

TEST_F(MixedControllerFixture, RejectsDegenerateMixes) {
  static const workload::LogNormalBatchDist dist(4.0, 0.6, 32);
  const auto make = [](const std::vector<partition::MixModelInput>& mix) {
    return RepartitionController(Repertoire(), hw::Cluster(8), 48, mix);
  };
  EXPECT_THROW(make({}), std::invalid_argument);
  EXPECT_THROW(make({{.model_id = 0, .share = 1.0}}), std::invalid_argument);
  EXPECT_THROW(make({{.model_id = 2, .share = 1.0, .dist = &dist}}),
               std::invalid_argument);
  EXPECT_THROW(make({{.model_id = 0, .share = -0.5, .dist = &dist},
                     {.model_id = 1, .share = 1.5, .dist = &dist}}),
               std::invalid_argument);
  EXPECT_THROW(make({{.model_id = 0, .share = 0.0, .dist = &dist},
                     {.model_id = 1, .share = 0.0, .dist = &dist}}),
               std::invalid_argument);
  EXPECT_THROW(make({{.model_id = 0, .share = 0.5, .dist = &dist},
                     {.model_id = 0, .share = 0.5, .dist = &dist}}),
               std::invalid_argument);
}

TEST_F(MixedControllerFixture, InitialPlanSplitsBudgetByShares) {
  auto controller = MakeController();
  EXPECT_EQ(controller.current_budgets().size(), 2u);
  EXPECT_EQ(controller.current_budgets()[0], 24);
  EXPECT_EQ(controller.current_budgets()[1], 24);
  EXPECT_LE(controller.current_plan().TotalGpcs(), 48);
}

TEST_F(MixedControllerFixture, NoRepartitionWithoutMixDrift) {
  auto controller = MakeController();
  TrafficEstimator est(32);
  workload::LogNormalBatchDist heavy(6.0, 0.6, 32);
  workload::LogNormalBatchDist light(4.0, 0.6, 32);
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    est.Observe(i % 2, (i % 2 == 0 ? heavy : light).Sample(rng));
  }
  EXPECT_LT(controller.DriftOf(est), 0.1);
  EXPECT_FALSE(controller.MaybeRepartition(est).has_value());
}

TEST_F(MixedControllerFixture, ShareDriftAloneTriggersRepartition) {
  ElasticConfig config;
  config.drift_threshold = 0.15;
  auto controller = MakeController(config);
  const auto before = controller.current_budgets();

  // Same per-model batch PMFs, but the mix flips to 90/10: only the
  // share axis drifts.
  TrafficEstimator est(32);
  workload::LogNormalBatchDist heavy(6.0, 0.6, 32);
  workload::LogNormalBatchDist light(4.0, 0.6, 32);
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    const int model = (i % 10) < 9 ? 0 : 1;
    est.Observe(model, (model == 0 ? heavy : light).Sample(rng));
  }
  EXPECT_GT(controller.DriftOf(est), 0.3);
  const auto plan = controller.MaybeRepartition(est);
  ASSERT_TRUE(plan.has_value());
  // The dominant model's budget grew at the other's expense.
  EXPECT_GT(controller.current_budgets()[0], before[0]);
  EXPECT_LT(controller.current_budgets()[1], before[1]);
  // Committed state refreshed: same traffic again is drift-free.
  EXPECT_LT(controller.DriftOf(est), 0.05);
  EXPECT_FALSE(controller.MaybeRepartition(est).has_value());
}

// Traffic for a model the repertoire does not hold is an error naming the
// model: the controller keeps committed state for repertoire models only.
TEST_F(MixedControllerFixture, UnknownModelTrafficThrows) {
  ElasticConfig config;
  config.min_observations = 50;
  auto controller = MakeController(config);
  TrafficEstimator est(32);
  for (int i = 0; i < 100; ++i) est.Observe(5, 8);
  const auto expect_names_model_5 = [](const std::function<void()>& call) {
    try {
      call();
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("model 5"), std::string::npos)
          << e.what();
    }
  };
  expect_names_model_5([&] { controller.DriftOf(est); });
  expect_names_model_5([&] { controller.MaybeRepartition(est); });
  // Known-model traffic mixed in does not mask the unknown one.
  for (int i = 0; i < 400; ++i) est.Observe(i % 2, 6);
  EXPECT_THROW(controller.MaybeRepartition(est), std::invalid_argument);
}

TEST_F(MixedControllerFixture, BelowMinObservationsNeverTriggers) {
  ElasticConfig config;
  config.min_observations = 1000;
  auto controller = MakeController(config);
  TrafficEstimator est(32);
  for (int i = 0; i < 500; ++i) est.Observe(0, 32);  // wildly drifted
  EXPECT_FALSE(controller.MaybeRepartition(est).has_value());
}

// End to end: one continuous multi-model run whose mix flips mid-trace;
// the controller must order at least one live reconfiguration and the
// layout must shift toward the newly dominant model.
TEST_F(MixedControllerFixture, MixDriftDrivesLiveReconfiguration) {
  const auto& rep = Repertoire();

  // Phase 1: 50/50; phase 2: 90/10 toward the heavy model (median 6 vs
  // 4).  Both phases pull from one Rng, the second continuing the first.
  const auto phase = [](double heavy, double light) {
    workload::ScenarioSpec spec;
    spec.rate.base_qps = 300.0;
    spec.components.resize(2);
    spec.components[0].weight = heavy;
    spec.components[0].median = 6.0;
    spec.components[1].model_id = 1;
    spec.components[1].weight = light;
    spec.components[1].median = 4.0;
    for (auto& c : spec.components) c.sigma = 0.6;
    return workload::ScenarioTraceSource(std::move(spec));
  };
  Rng rng(6);
  std::vector<workload::Query> all;
  workload::ScenarioTraceSource balanced = phase(0.5, 0.5);
  for (int i = 0; i < 3000; ++i) all.push_back(balanced.Pull(rng));
  const SimTime offset = all.back().arrival;
  workload::ScenarioTraceSource skewed = phase(0.9, 0.1);
  for (int i = 0; i < 3000; ++i) {
    workload::Query q = skewed.Pull(rng);
    q.id += 3000;
    q.arrival += offset;
    all.push_back(q);
  }
  const workload::QueryTrace trace(std::move(all));

  ElasticConfig config;
  config.drift_threshold = 0.15;
  config.min_observations = 400;
  auto controller = MakeController(config);
  const auto initial_budgets = controller.current_budgets();

  const SimTime sla = SecToTicks(1.5 * rep.profile(0).LatencySec(7, 32));
  ElasticServerSim sim(
      controller, rep,
      [&] { return std::make_unique<sched::ElsaScheduler>(rep, sla); }, sla,
      /*queries_per_epoch=*/1000, /*seed=*/42);
  const auto result = sim.Run(trace);

  EXPECT_EQ(result.total.completed, trace.size());
  EXPECT_GE(result.reconfigurations, 1);
  EXPECT_GT(result.total.reconfig_stalled, 0u);
  EXPECT_GT(controller.current_budgets()[0], initial_budgets[0]);
  ASSERT_EQ(result.total.models.size(), 2u);
  EXPECT_GT(result.total.models[0].completed,
            result.total.models[1].completed);
}

}  // namespace
}  // namespace pe::online
