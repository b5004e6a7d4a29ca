// Golden digests for the event engine: every scenario of the shared grid
// (FIFS/ELSA x 1/3 models x static/reconfigure x 3 seeds), the wide cells,
// the knee cells, the six event-ordering scenarios, the elastic driver
// (forced switch and PARIS-replanning day cycle), and the paper's Table-I
// servers driven through core::MixTestbed must reproduce the digests
// checked in below.  A mismatch prints the actual digest; re-record only
// for a deliberate, justified behaviour change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "engine_scenarios.h"
#include "golden_digest.h"
#include "hw/cluster.h"
#include "online/elastic_server.h"
#include "online/repartition_controller.h"
#include "profile/model_repertoire.h"

namespace pe::testing {
namespace {

TEST(EngineGolden, ScenarioGridMatchesCheckedInDigests) {
  // One digest per cell, in ScenarioGrid() order.
  const std::uint64_t kDigests[] = {
      // FIFS, 1 model: static seeds 1/7/42, then reconfigure.
      0xc1b04809c8b52932, 0xdced1fbfb1efafca, 0x8dcef076f671577d,
      0x5187876b539ac046, 0x834ef35aa0d71b41, 0xd14c628ce037477d,
      // FIFS, 3 models.
      0x7593c5b58454a42c, 0xf434d9279066cd82, 0xd1008cb131aa3c78,
      0x47a572cddb551bc8, 0x8302a1633ec5c199, 0xbaf2da39c0f93c7f,
      // ELSA, 1 model.
      0x8619c82f9f374185, 0x9d54bbf3118bb419, 0xf788579d2028cda4,
      0xad843ea3da559e66, 0xf26e4ed38d53802d, 0x1295b377527bd661,
      // ELSA, 3 models.
      0x0a5e119d4d6faca8, 0xf94f3d1a150db112, 0x67a46ba223adfbf3,
      0x56c20e47f6e2b387, 0x7a2a90976ed7ecc8, 0x905926d5d18107c5,
  };
  const auto grid = ScenarioGrid();
  ASSERT_EQ(grid.size(), std::size(kDigests));
  SchedulerSource plain;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ExpectDigest(DigestRecords(RunGridCell(grid[i], plain)), kDigests[i],
                 grid[i].Label());
  }
}

TEST(EngineGolden, WideCellsMatchCheckedInDigests) {
  // One digest per cell, in WideGrid() order.
  const std::uint64_t kDigests[] = {
      // ELSA, default parameters: SLA 40 ms, 2 ms.
      0x5cde8eb8e70c1d21, 0xe224b9c992d150b8,
      // ELSA, swap charge + locality tie-break: SLA 40, 8, 2 ms, then the
      // fail / recover / reconfigure drive at 8 ms.
      0x38ecdc16050c3109, 0xcd7f8796d4982eeb, 0x699161a54ba4db04,
      0xab3617beae95f2c9,
      // JSQ.
      0x822010c1b50f1f58,
      // FIFS, without and with the fail / recover / reconfigure drive.
      0x7b8809dd776d5781, 0x4f480198ab463bad,
  };
  const auto cells = WideGrid();
  ASSERT_EQ(cells.size(), std::size(kDigests));
  SchedulerSource plain;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ExpectDigest(DigestRecords(RunWideCell(cells[i], plain)), kDigests[i],
                 cells[i].Label());
  }
}

TEST(EngineGolden, OrderingScenariosMatchCheckedInDigests) {
  const std::uint64_t kDigests[] = {
      0xe04bfa5adce33964,  // out-of-order injection
      0x4fcab59e74023fa1,  // same-instant bursts
      0xf7e941f6baef042b,  // far-future spill
      0xe29e262eb1ede7b3,  // incremental waves
      0x1baafd2ca9e443b5,  // mid-run injection ties
      0xa3867521e3f14909,  // in-order after out-of-order
  };
  const auto& scenarios = OrderingScenarios();
  ASSERT_EQ(scenarios.size(), std::size(kDigests));
  SchedulerSource plain;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ExpectDigest(DigestRecords(scenarios[i].run(plain)), kDigests[i],
                 scenarios[i].name);
  }
}

TEST(EngineGolden, KneeCellsMatchCheckedInDigests) {
  // One digest per cell, in KneeCells() order.
  const std::uint64_t kDigests[] = {
      0x82c0cea0712b3e20,  // plain
      0x2b06049af787b7de,  // 500 us swap charge + 1 ms locality tie
      0xb47907e434358af7,  // noise sigma 0.25
  };
  const auto cells = KneeCells();
  ASSERT_EQ(cells.size(), std::size(kDigests));
  SchedulerSource plain;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const core::MixTestbed tb = KneeTestbed(cells[i]);
    const std::vector<int> layout = tb.PlanMixed().plan.instance_gpcs;
    // 220 partitions: 159 x 1, 21 x 2, 6 x 3, 3 x 4 and 31 x 7 GPCs.
    std::map<int, int> sizes;
    for (const int gpcs : layout) ++sizes[gpcs];
    EXPECT_EQ(sizes, (std::map<int, int>{
                         {1, 159}, {2, 21}, {3, 6}, {4, 3}, {7, 31}}))
        << cells[i].name;
    ExpectDigest(DigestRecords(RunKneeCell(cells[i], tb, layout, plain)),
                 kDigests[i], cells[i].name);
  }
}

// The elastic driver (epoch advances + controller-ordered live
// reconfigurations) under a policy that switches layouts exactly once.
class ForcedSwitchPolicy final : public online::RepartitionPolicy {
 public:
  ForcedSwitchPolicy(std::vector<int> initial, std::vector<int> next,
                     int switch_at_call)
      : switch_at_call_(switch_at_call) {
    current_.instance_gpcs = std::move(initial);
    next_.instance_gpcs = std::move(next);
    config_.reconfig_downtime = MsToTicks(12.0);
  }

  const partition::PartitionPlan& current_plan() const override {
    return current_;
  }
  const online::ElasticConfig& config() const override { return config_; }

  std::optional<partition::PartitionPlan> MaybeRepartition(
      const online::TrafficEstimator& estimator) override {
    (void)estimator;
    if (++calls_ == switch_at_call_) {
      current_ = next_;
      return current_;
    }
    return std::nullopt;
  }

 private:
  partition::PartitionPlan current_;
  partition::PartitionPlan next_;
  online::ElasticConfig config_;
  int switch_at_call_ = 0;
  int calls_ = 0;
};

// Every order-statistic, count and layout field of an elastic result (its
// means are rounding-sensitive summaries of the same records and are left
// out of the digest).
std::uint64_t DigestElastic(const online::ElasticResult& r) {
  Fnv1a h;
  h.AddSigned(r.reconfigurations);
  for (const online::EpochStats& e : r.epochs) {
    h.Add(e.queries);
    h.AddDouble(e.p95_ms);
    h.AddDouble(e.violation_rate);
    h.Add(e.stalled);
    h.Add(e.reconfigured ? 1 : 0);
    for (const int g : e.layout) h.AddSigned(g);
  }
  h.Add(r.total.completed);
  h.AddDouble(r.total.p50_latency_ms);
  h.AddDouble(r.total.p95_latency_ms);
  h.AddDouble(r.total.p99_latency_ms);
  h.AddDouble(r.total.max_latency_ms);
  h.AddDouble(r.total.sla_violation_rate);
  h.Add(r.total.reconfig_stalled);
  h.Add(r.total.model_swaps);
  return h.value();
}

TEST(EngineGolden, ElasticDriverMatchesCheckedInDigest) {
  const auto rep = MakeScenarioRepertoire(3);
  const SimTime sla = MsToTicks(40.0);
  const auto trace = MakeScenarioTrace(rep, 900, /*seed=*/11);
  ForcedSwitchPolicy policy({1, 2, 7}, {2, 3, 3, 7}, /*switch_at_call=*/2);
  sched::ElsaParams params;
  params.locality_tie_sec = 0.002;
  online::ElasticServerSim elastic(
      policy, rep,
      [&rep, sla, params] {
        return std::make_unique<sched::ElsaScheduler>(rep, sla, params);
      },
      sla, /*queries_per_epoch=*/250, /*seed=*/77,
      /*model_swap_cost=*/UsToTicks(250.0));
  const auto result = elastic.Run(trace);
  EXPECT_EQ(result.reconfigurations, 1);
  ExpectDigest(DigestElastic(result), 0x54d93ee8b1f0de0d, "elastic driver");
}

// The single-model elastic driver as the CLI and the online ablation run
// it: the RepartitionController, seeded with a one-component mix,
// re-plans PARIS from the live batch PMF over a day cycle (small -> large
// -> small batches) while ELSA schedules.
TEST(EngineGolden, SingleModelElasticDriverMatchesCheckedInDigest) {
  const auto rep = profile::BuildZooRepertoire({"resnet"});
  const profile::ProfileTable& table = rep.profile(0);
  const SimTime sla = SecToTicks(1.5 * table.LatencySec(7, 32));

  const workload::LogNormalBatchDist small(3.0, 0.6, 32);
  const workload::LogNormalBatchDist large(18.0, 0.4, 32);
  const auto trace = workload::GeneratePhasedTrace(
      350.0, {{&small, 600}, {&large, 600}, {&small, 600}}, 1800, 11);

  online::ElasticConfig config;
  config.drift_threshold = 0.15;
  config.min_observations = 150;
  config.reconfig_downtime = MsToTicks(50.0);
  online::RepartitionController controller(
      rep, hw::Cluster(8), 48,
      {{.model_id = 0, .share = 1.0, .profile = &table, .dist = &small}}, {},
      config);
  online::ElasticServerSim elastic(
      controller, rep,
      [&rep, sla] { return std::make_unique<sched::ElsaScheduler>(rep, sla); },
      sla, /*queries_per_epoch=*/150, /*seed=*/0xE1A5);
  const auto result = elastic.Run(trace);
  EXPECT_EQ(result.reconfigurations, 2);
  ExpectDigest(DigestElastic(result), 0x28b18672a1436ecd,
               "single-model elastic driver");
}


// One Table-I cell: `kind` on `plan`, 3,000 queries at seed 7.
std::uint64_t Table1CellDigest(const core::MixTestbed& tb,
                               const partition::PartitionPlan& plan,
                               core::SchedulerKind kind, double rate_qps) {
  auto scheduler = tb.MakeScheduler(kind);
  core::RunOptions run;
  run.rate_qps = rate_qps;
  run.num_queries = 3000;
  run.seed = 7;
  return DigestRecords(tb.Run(plan.instance_gpcs, *scheduler, run).records);
}

// Each of three paper models on its Table-I server, as the evaluation
// runs it: PARIS, Random, GPU(7) and GPU(1) under FIFS and ELSA, then
// PARIS under JSQ and greedy, at one fixed rate per model.  Plus one
// frontend-bound mobilenet GPU(1) cell and the bit patterns of one
// latency-bounded throughput search.  Recorded through the single-model
// testbed that the one-model MixTestbed replaced.
TEST(EngineGolden, Table1TestbedMatchesCheckedInDigests) {
  using core::SchedulerKind;
  // Per model: {PARIS, Random, GPU(7), GPU(1)} x {FIFS, ELSA}, then
  // PARIS+JSQ and PARIS+greedy.
  const std::uint64_t kDigests[] = {
      // resnet, 500 q/s.
      0xd4cc3384cbb6121a, 0xbba1c3b3c4d8c475, 0xf094037e5d0ed7ac,
      0x8c3930e20c852087, 0x7726cec8587c7e03, 0x89c7d851bd9d3bf4,
      0x466a6828fc3c6ecc, 0xd9424b2bb6570dd0, 0x75fdf03ec9049796,
      0xe276a934f0e74fad,
      // mobilenet, 1000 q/s.
      0xc657875d5fbbf29f, 0x5fad5c7a72de6075, 0x40fbdaf8cacbf60f,
      0xe180e4ea22827f42, 0xd14ca2f87c541b1b, 0xa2f786b82b14260d,
      0x0a96402d2e38c1fe, 0xa914f3f2e6d4ce2b, 0xf414319da815f4bc,
      0xcbb521eba1aeabfb,
      // bert, 150 q/s.
      0x32cb26a7320aa067, 0x63d8d78d5cf00902, 0x5bb5c227e09c5321,
      0x39a29b3671cebfa6, 0x863a7c57db603ed7, 0x01cbf54a66f72aad,
      0xfd6e28abfe7a2ab7, 0x8f68f26bfcb21129, 0xf0c00f6d02b5be41,
      0x9d8d62f72e362bc1,
  };
  const char* const kModels[] = {"resnet", "mobilenet", "bert"};
  const double kRates[] = {500.0, 1000.0, 150.0};
  const char* const kPlanNames[] = {"PARIS", "Random", "GPU(7)", "GPU(1)"};
  std::size_t cell = 0;
  for (std::size_t m = 0; m < std::size(kModels); ++m) {
    const core::MixTestbed tb(core::Table1Config(kModels[m]));
    const partition::PartitionPlan paris = tb.PlanMixed().plan;
    const partition::PartitionPlan random = tb.PlanRandom();
    const partition::PartitionPlan gpu7 = tb.PlanHomogeneous(7);
    const partition::PartitionPlan gpu1 = tb.PlanHomogeneous(1);
    const partition::PartitionPlan* plans[] = {&paris, &random, &gpu7, &gpu1};
    const auto expect = [&](std::size_t p, SchedulerKind kind) {
      std::string label = kModels[m];
      label += ' ';
      label += kPlanNames[p];
      label += '+';
      label += core::ToString(kind);
      ExpectDigest(Table1CellDigest(tb, *plans[p], kind, kRates[m]),
                   kDigests[cell++], label);
    };
    for (std::size_t p = 0; p < std::size(plans); ++p) {
      expect(p, SchedulerKind::kFifs);
      expect(p, SchedulerKind::kElsa);
    }
    expect(0, SchedulerKind::kJsq);
    expect(0, SchedulerKind::kGreedyFastest);
  }
  ASSERT_EQ(cell, std::size(kDigests));

  core::MixConfig frontend = core::Table1Config("mobilenet");
  frontend.frontend.enabled = true;
  frontend.frontend.lanes = 4;
  frontend.frontend.cost_per_query = MsToTicks(1.0);
  const core::MixTestbed fe(frontend);
  const partition::PartitionPlan gpu1 = fe.PlanHomogeneous(1);
  ExpectDigest(Table1CellDigest(fe, gpu1, SchedulerKind::kFifs, 1000.0),
               0xe803b7e8e56d1534, "mobilenet GPU(1)+FIFS, frontend on");

  const core::MixTestbed tb(core::Table1Config("resnet"));
  const partition::PartitionPlan paris = tb.PlanMixed().plan;
  const double sla_ms = TicksToMs(tb.sla_target());
  core::SearchOptions search;
  search.num_queries = 1000;
  search.iterations = 8;
  const core::ThroughputResult r = core::LatencyBoundedThroughput(
      tb, paris, SchedulerKind::kElsa, sla_ms, search);
  ExpectDigest(std::bit_cast<std::uint64_t>(r.qps), 0x4090200000000000,
               "resnet PARIS+ELSA latency-bounded qps");
  ExpectDigest(std::bit_cast<std::uint64_t>(r.p95_at_qps_ms),
               0x403b3129c41ea862, "resnet PARIS+ELSA p95 at that qps");
}

}  // namespace
}  // namespace pe::testing
