// Randomized invariant tests ("fuzz-light"): across many random
// configurations -- random partition layouts, schedulers, loads and seeds --
// the simulator must uphold structural invariants regardless of policy:
//   * every query completes exactly once, after its arrival;
//   * a worker never serves two queries at overlapping times;
//   * service time equals the ground-truth latency of (partition, batch)
//     when noise is off;
//   * identical configurations replay bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/fleet_runner.h"
#include "core/mix_runner.h"
#include "fleet/fault.h"
#include "hw/mig.h"
#include "perf/model_zoo.h"
#include "perf/roofline.h"

namespace pe {
namespace {

using core::SchedulerKind;

struct FuzzCase {
  std::uint64_t seed;
  SchedulerKind kind;
};

class FuzzInvariantsTest : public ::testing::TestWithParam<FuzzCase> {
 protected:
  // A single shared testbed (profiling is the expensive part).
  static const core::MixTestbed& tb() {
    static const core::MixTestbed instance{core::Table1Config("resnet")};
    return instance;
  }

  // Ground truth, computed here rather than read from the testbed.
  static double LatencySec(int gpcs, int batch) {
    static const perf::RooflineEngine engine{hw::GpuSpec{}, {}};
    static const perf::DnnModel model = perf::BuildModelByName("resnet");
    return engine.LatencySec(model, gpcs, batch);
  }

  // Random valid heterogeneous plan derived from the fuzz seed.
  static partition::PartitionPlan RandomPlan(std::uint64_t seed) {
    return tb().PlanRandom(seed);
  }
};

TEST_P(FuzzInvariantsTest, StructuralInvariantsHold) {
  const auto& [seed, kind] = GetParam();
  Rng rng(seed);
  const auto plan = RandomPlan(seed);
  auto scheduler = tb().MakeScheduler(kind);

  core::RunOptions opt;
  // Loads from lightly loaded to overloaded.
  opt.rate_qps = rng.Uniform(50.0, 3000.0);
  opt.num_queries = 1500;
  opt.seed = seed ^ 0xF00D;
  const auto result = tb().Run(plan.instance_gpcs, *scheduler, opt);

  ASSERT_EQ(result.records.size(), opt.num_queries);

  // Per-query sanity.
  std::map<int, std::vector<std::pair<SimTime, SimTime>>> busy;
  for (const auto& r : result.records) {
    EXPECT_GE(r.dispatched, r.arrival) << "query " << r.id;
    EXPECT_GE(r.started, r.dispatched) << "query " << r.id;
    EXPECT_GT(r.finished, r.started) << "query " << r.id;
    EXPECT_GE(r.worker, 0);
    EXPECT_TRUE(hw::GpuSpec::IsValidPartitionSize(r.worker_gpcs));
    // Noise off: service time must match ground truth exactly (to tick
    // rounding).
    const SimTime expected =
        std::max<SimTime>(1, SecToTicks(LatencySec(r.worker_gpcs, r.batch)));
    EXPECT_EQ(r.finished - r.started, expected) << "query " << r.id;
    busy[r.worker].emplace_back(r.started, r.finished);
  }

  // No overlapping service on any worker.
  for (auto& [worker, spans] : busy) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second) << "worker " << worker;
    }
  }

  // Bit-identical replay.
  auto scheduler2 = tb().MakeScheduler(kind);
  const auto replay = tb().Run(plan.instance_gpcs, *scheduler2, opt);
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].finished, replay.records[i].finished);
    EXPECT_EQ(result.records[i].worker, replay.records[i].worker);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuzzInvariantsTest,
    ::testing::ValuesIn([] {
      std::vector<FuzzCase> cases;
      const SchedulerKind kinds[] = {
          SchedulerKind::kFifs, SchedulerKind::kElsa, SchedulerKind::kJsq,
          SchedulerKind::kGreedyFastest};
      std::uint64_t seed = 1000;
      for (int i = 0; i < 6; ++i) {
        for (SchedulerKind kind : kinds) {
          cases.push_back({seed++, kind});
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return std::string(core::ToString(info.param.kind)) + "_" +
             std::to_string(info.param.seed);
    });

// Randomized fault schedules over a small sharded fleet: whatever breaks
// whenever, the failover driver must classify every injected query exactly
// once (completed + failed + shed == injected), leave no record
// un-terminal at Finish, and replay bit-identically.
TEST(FuzzFaultInvariants, RandomFaultSchedulesConserveEveryQuery) {
  core::FleetTestbedConfig fc;
  fc.mix.models.push_back({"resnet", 0.6, 6.0, 0.9});
  fc.mix.models.push_back({"mobilenet", 0.4, 4.0, 0.8});
  fc.mix.swap_cost_us = 200.0;
  fc.num_servers = 4;
  fc.placement = fleet::PlacementKind::kSharded;
  fc.replicas = 2;
  const core::FleetTestbed tb(fc);

  for (const std::uint64_t seed : {31ull, 32ull, 33ull, 34ull}) {
    Rng rng(seed);
    const auto trace =
        tb.GenerateFleetTrace(rng.Uniform(300.0, 1200.0), 2500, seed);
    const SimTime span = trace.queries().back().arrival;

    fleet::FaultPlan plan;
    plan.name = "fuzz";
    const int incidents = static_cast<int>(rng.UniformInt(2, 6));
    for (int k = 0; k < incidents; ++k) {
      const int server =
          static_cast<int>(rng.UniformInt(0, fc.num_servers - 1));
      const auto t0 = static_cast<SimTime>(rng.Uniform(0.1, 0.8) *
                                           static_cast<double>(span));
      const auto dur = static_cast<SimTime>(rng.Uniform(0.05, 0.2) *
                                            static_cast<double>(span));
      switch (rng.UniformInt(0, 2)) {
        case 0:  // crash, sometimes permanent
          plan.events.push_back({t0, fleet::FaultKind::kServerCrash, server});
          if (rng.UniformInt(0, 3) > 0) {
            plan.events.push_back(
                {t0 + dur, fleet::FaultKind::kServerRecover, server});
          }
          break;
        case 1: {  // single-slice outage
          const auto lanes = static_cast<std::int64_t>(
              tb.placement().server(server).partition_gpcs.size());
          const int w = static_cast<int>(rng.UniformInt(0, lanes - 1));
          plan.events.push_back(
              {t0, fleet::FaultKind::kWorkerFail, server, w});
          plan.events.push_back(
              {t0 + dur, fleet::FaultKind::kWorkerRecover, server, w});
          break;
        }
        default:  // brownout window
          plan.events.push_back({t0, fleet::FaultKind::kSlowdownBegin, server,
                                 -1, rng.Uniform(1.5, 6.0)});
          plan.events.push_back(
              {t0 + dur, fleet::FaultKind::kSlowdownEnd, server});
      }
    }
    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const fleet::FaultEvent& a, const fleet::FaultEvent& b) {
                       return a.time < b.time;
                     });
    plan.max_retries = static_cast<int>(rng.UniformInt(0, 3));
    plan.deadline =
        rng.UniformInt(0, 1) ? MsToTicks(rng.Uniform(100.0, 1000.0)) : 0;

    const auto result = tb.RunWithFaults(trace, plan, /*jobs=*/2);
    const auto& f = result.fault;
    EXPECT_EQ(f.injected, trace.size()) << "seed " << seed;
    EXPECT_EQ(f.completed + f.failed + f.shed, f.injected)
        << "seed " << seed;
    // No stuck server: every record the engines emitted ended terminal.
    for (const auto& sr : result.per_server) {
      for (const auto& r : sr.records) {
        EXPECT_TRUE(r.finished > 0 || r.failed || r.shed)
            << "seed " << seed << " query " << r.id;
      }
    }
    // Same plan, different jobs: bit-identical terminal accounting.
    const auto replay = tb.RunWithFaults(trace, plan, /*jobs=*/1);
    EXPECT_EQ(replay.fault.completed, f.completed) << "seed " << seed;
    EXPECT_EQ(replay.fault.failed, f.failed) << "seed " << seed;
    EXPECT_EQ(replay.fault.shed, f.shed) << "seed " << seed;
    EXPECT_EQ(replay.fault.retried, f.retried) << "seed " << seed;
    EXPECT_EQ(replay.fault.makespan, f.makespan) << "seed " << seed;
  }
}

// With noise on, estimates diverge from actuals; invariants must still
// hold (the scheduler may be wrong, the simulator must not be).
TEST(FuzzInvariantsNoise, NoiseDoesNotBreakConservation) {
  core::MixConfig c = core::Table1Config("mobilenet");
  c.latency_noise_sigma = 0.3;
  const core::MixTestbed tb(c);
  for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
    const auto plan = tb.PlanRandom(seed);
    auto scheduler = tb.MakeScheduler(SchedulerKind::kElsa);
    core::RunOptions opt;
    opt.rate_qps = 800.0;
    opt.num_queries = 2000;
    opt.seed = seed;
    const auto result = tb.Run(plan.instance_gpcs, *scheduler, opt);
    std::map<int, std::vector<std::pair<SimTime, SimTime>>> busy;
    for (const auto& r : result.records) {
      EXPECT_GT(r.finished, r.started);
      busy[r.worker].emplace_back(r.started, r.finished);
    }
    for (auto& [worker, spans] : busy) {
      std::sort(spans.begin(), spans.end());
      for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i].first, spans[i - 1].second);
      }
    }
  }
}

}  // namespace
}  // namespace pe
