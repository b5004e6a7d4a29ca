// Fleet aggregation: FleetResult::Stats -- per-server partials merged
// into the aggregate under one fleet-wide warmup cut -- must equal the
// tests-only stats oracle field for field, and be identical at any jobs
// count, across router policies, seeds, a faulted run, warmup 0 and an
// empty result.  Plus the rebaseline bounds against values recorded
// before the reduction became order-free, fleet-trace id validation, and
// the unplaced-model routing-error regression.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet_runner.h"
#include "fleet/cluster.h"
#include "fleet/router.h"
#include "sim/metrics.h"
#include "stats_oracle.h"
#include "workload/trace.h"

namespace pe::core {
namespace {

FleetTestbedConfig MixedFleet(int servers, fleet::RouterPolicy policy,
                              std::uint64_t seed) {
  FleetTestbedConfig fc;
  fc.mix.models.push_back({"resnet", 0.4, 6.0, 0.9});
  fc.mix.models.push_back({"mobilenet", 0.3, 4.0, 0.8});
  fc.mix.models.push_back({"bert", 0.3, 2.0, 0.7});
  fc.mix.swap_cost_us = 200.0;
  fc.mix.latency_noise_sigma = 0.2;  // consume the per-server RNG streams
  fc.num_servers = servers;
  fc.placement = fleet::PlacementKind::kSharded;
  fc.replicas = 2;
  fc.policy = policy;
  fc.seed = seed;
  return fc;
}

void ExpectIdenticalFleetStats(const fleet::FleetStats& fast,
                               const fleet::FleetStats& ref,
                               const std::string& label) {
  EXPECT_EQ(fast.num_servers, ref.num_servers) << label;
  EXPECT_EQ(fast.routed_queries, ref.routed_queries) << label;
  EXPECT_EQ(fast.routed_per_server, ref.routed_per_server) << label;
  testing::ExpectIdenticalServerStats(fast.aggregate, ref.aggregate,
                                      label + " aggregate");
  ASSERT_EQ(fast.per_server.size(), ref.per_server.size()) << label;
  for (std::size_t s = 0; s < ref.per_server.size(); ++s) {
    testing::ExpectIdenticalServerStats(
        fast.per_server[s], ref.per_server[s],
        label + " server " + std::to_string(s));
  }
}

TEST(FleetStats, MatchesTheOracleAtEveryJobsCount) {
  // Multi-server, mixed-model traffic: every policy x seed x jobs cell
  // must agree with the oracle on every field.
  for (const auto policy :
       {fleet::RouterPolicy::kHash, fleet::RouterPolicy::kLeastLoaded,
        fleet::RouterPolicy::kPowerOfTwo}) {
    for (const std::uint64_t seed : {7ull, 1234ull}) {
      const FleetTestbed tb(MixedFleet(5, policy, seed));
      const auto trace = tb.GenerateFleetTrace(/*rate_qps=*/2500.0,
                                               /*num_queries=*/4000, seed);
      const auto result = tb.Run(trace, /*jobs=*/2);
      const auto oracle =
          testing::OracleFleetStats(result, tb.sla_target(), 0.1);
      for (const int jobs : {1, 3}) {
        const auto stats =
            result.Stats(tb.sla_target(), /*warmup_fraction=*/0.1, jobs);
        ExpectIdenticalFleetStats(
            stats, oracle,
            std::string(ToString(policy)) + " seed " + std::to_string(seed) +
                " jobs " + std::to_string(jobs));
      }
    }
  }
}

TEST(FleetStats, MatchesTheOracleAtZeroWarmupAndOnEmptyResults) {
  // warmup 0 keeps every record; an empty FleetResult must come back
  // zeroed instead of dividing by the span.
  const FleetTestbed tb(MixedFleet(3, fleet::RouterPolicy::kHash, 3));
  const auto trace = tb.GenerateFleetTrace(1500.0, 2000, /*seed=*/3);
  const auto result = tb.Run(trace, /*jobs=*/2);
  for (const int jobs : {1, 3}) {
    ExpectIdenticalFleetStats(
        result.Stats(tb.sla_target(), /*warmup_fraction=*/0.0, jobs),
        testing::OracleFleetStats(result, tb.sla_target(), 0.0),
        "warmup 0 jobs " + std::to_string(jobs));
  }

  fleet::FleetResult empty;
  for (const int jobs : {1, 3}) {
    const auto stats = empty.Stats(tb.sla_target(), 0.1, jobs);
    EXPECT_EQ(stats.routed_queries, 0u);
    EXPECT_EQ(stats.aggregate.completed, 0u);
    ExpectIdenticalFleetStats(
        stats, testing::OracleFleetStats(empty, tb.sla_target(), 0.1),
        "empty result jobs " + std::to_string(jobs));
  }
}

TEST(FleetStats, RebaselineStaysWithinBounds) {
  // Values recorded from the order-dependent double-sum reduction this
  // one replaced, on a fixed fault-free fleet: every percentile, count,
  // rate and utilization is bit-identical; means moved only by rounding.
  const FleetTestbed tb(MixedFleet(5, fleet::RouterPolicy::kPowerOfTwo, 7));
  const auto trace = tb.GenerateFleetTrace(2500.0, 4000, /*seed=*/7);
  const auto result = tb.Run(trace, /*jobs=*/2);
  for (const int jobs : {1, 3}) {
    const auto a = result.Stats(tb.sla_target(), 0.1, jobs).aggregate;
    const std::string label = "jobs " + std::to_string(jobs);
    EXPECT_EQ(a.completed, 3600u) << label;
    EXPECT_EQ(a.failed + a.shed + a.reconfig_stalled, 0u) << label;
    EXPECT_EQ(a.model_swaps, 493u) << label;
    EXPECT_EQ(a.workers.size(), 70u) << label;
    EXPECT_EQ(a.p50_latency_ms, 0x1.f433e0370cdc8p+5) << label;
    EXPECT_EQ(a.p95_latency_ms, 0x1.35eac79db8e31p+6) << label;
    EXPECT_EQ(a.p99_latency_ms, 0x1.54838c89e69e3p+6) << label;
    EXPECT_EQ(a.max_latency_ms, 0x1.954214f0520d1p+6) << label;
    EXPECT_EQ(a.sla_violation_rate, 0x1.cb17e4b17e4b1p-3) << label;
    EXPECT_EQ(a.achieved_qps, 0x1.212fb131ebab6p+11) << label;
    EXPECT_EQ(a.mean_worker_utilization, 0x1.1ed9195671deep-1) << label;
    const auto near = [](double x, double recorded) {
      return std::abs(x - recorded) <= 1e-12 * std::abs(recorded);
    };
    EXPECT_TRUE(near(a.mean_latency_ms, 0x1.dc31161cb9d28p+5)) << label;
    EXPECT_TRUE(near(a.mean_queue_delay_ms, 0x1.42d4ba15b6374p+5)) << label;
    const struct {
      std::size_t completed, swaps;
      double p95, p99, violations, mean;
    } kModels[] = {
        {1483, 142, 0x1.35e52d44dca8ep+6, 0x1.540da0686acd9p+6,
         0x1.d6ea6c0fe19e5p-3, 0x1.e1f1065d4b1a2p+5},
        {1039, 246, 0x1.30b6013d16e1bp+6, 0x1.412a97a0c608ap+6,
         0x1.dd0333fd0b167p-3, 0x1.d693fdf01f8bap+5},
        {1078, 105, 0x1.3a010e779207dp+6, 0x1.5dedbc13c1fecp+6,
         0x1.a98ef606a63bep-3, 0x1.d9b13ffd2367cp+5},
    };
    ASSERT_EQ(a.models.size(), std::size(kModels)) << label;
    for (std::size_t m = 0; m < a.models.size(); ++m) {
      const auto& got = a.models[m];
      const std::string ml = label + " model " + std::to_string(m);
      EXPECT_EQ(got.model, static_cast<int>(m)) << ml;
      EXPECT_EQ(got.completed, kModels[m].completed) << ml;
      EXPECT_EQ(got.swaps, kModels[m].swaps) << ml;
      EXPECT_EQ(got.p95_latency_ms, kModels[m].p95) << ml;
      EXPECT_EQ(got.p99_latency_ms, kModels[m].p99) << ml;
      EXPECT_EQ(got.sla_violation_rate, kModels[m].violations) << ml;
      EXPECT_TRUE(near(got.mean_latency_ms, kModels[m].mean)) << ml;
    }
  }
}

TEST(FleetStats, TracesWhoseIdsAreNotPositionsAreRejected) {
  // Fleet drivers index per-query state by Query::id, so a trace whose
  // ids are sparse or permuted must fail loudly, naming the first bad
  // row, on the batch and the fault-injection path alike.
  const FleetTestbed tb(MixedFleet(4, fleet::RouterPolicy::kLeastLoaded, 11));
  const auto sorted = tb.GenerateFleetTrace(/*rate_qps=*/2000.0,
                                            /*num_queries=*/3000, /*seed=*/11);
  // Reversed ids over unchanged rows (QueryTrace keeps rows in arrival
  // order, so reordering the rows themselves would undo the permutation).
  auto reversed = sorted.queries();
  for (auto& q : reversed) q.id = reversed.size() - 1 - q.id;
  auto sparse = sorted.queries();
  for (auto& q : sparse) q.id = q.id * 2 + 1;  // ids outside the positions
  fleet::FaultPlan plan;
  plan.name = "manual-crash";
  plan.events.push_back({sorted.queries().back().arrival / 3,
                         fleet::FaultKind::kServerCrash, /*server=*/1});
  for (const auto& input :
       {std::pair{"reversed", reversed}, std::pair{"sparse", sparse}}) {
    const char* name = input.first;
    const workload::QueryTrace trace(input.second);
    const auto expect_row_zero = [&](const auto& run, const char* driver) {
      try {
        run();
        ADD_FAILURE() << name << " trace accepted by " << driver;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("row 0 "), std::string::npos)
            << name << " via " << driver << ": " << e.what();
      }
    };
    expect_row_zero([&] { tb.Run(trace, /*jobs=*/2); }, "Cluster::Simulate");
    expect_row_zero([&] { tb.RunWithFaults(trace, plan, /*jobs=*/2); },
                    "SimulateWithFaults");
  }
}

TEST(FleetStats, CasualtiesAreCountedButExcludedFromThePercentilePool) {
  // A failed attempt's `finished` is the failure instant and a shed
  // query's is its drop time -- sampling either would poison the
  // percentiles.  Hand-build a one-server result where the casualty
  // "latency" dwarfs every genuine completion: the latency figures must
  // not move, while failed/shed are tallied separately.
  fleet::FleetResult result;
  sim::SimResult sr;
  const SimTime ms = MsToTicks(1.0);
  for (int i = 0; i < 12; ++i) {
    sim::QueryRecord r;
    r.id = static_cast<std::uint64_t>(i);
    r.arrival = static_cast<SimTime>(i) * 10 * ms;
    r.dispatched = r.arrival;
    r.started = r.arrival + ms;
    r.worker = 0;
    r.worker_gpcs = 7;
    if (i == 5) {
      r.failed = true;
      r.finished = r.arrival + 100'000 * ms;  // absurd sentinel latency
    } else if (i == 9) {
      r.shed = true;
      r.finished = r.arrival + 50'000 * ms;
    } else {
      r.finished = r.started + (2 + i % 4) * ms;
    }
    sr.records.push_back(r);
  }
  result.per_server.push_back(std::move(sr));
  result.global_ids = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  result.id_offsets = {0, 12};
  result.global_models = {{0}};
  result.worker_base = {0};

  for (const int jobs : {1, 2}) {
    const auto stats =
        result.Stats(/*sla_target=*/20 * ms, /*warmup_fraction=*/0.0, jobs);
    const auto& agg = stats.aggregate;
    EXPECT_EQ(agg.completed, 10u);
    EXPECT_EQ(agg.failed, 1u);
    EXPECT_EQ(agg.shed, 1u);
    // Pool = completions only: the worst genuine latency is 6 ms
    // (1 ms queue + 5 ms service), nowhere near the casualty sentinels.
    EXPECT_EQ(agg.max_latency_ms, 6.0);
    EXPECT_LE(agg.p99_latency_ms, 6.0);
    EXPECT_EQ(agg.sla_violation_rate, 0.0);
    ExpectIdenticalFleetStats(
        stats, testing::OracleFleetStats(result, 20 * ms, 0.0),
        "hand-built casualties jobs " + std::to_string(jobs));
    ASSERT_EQ(stats.per_server.size(), 1u);
    EXPECT_EQ(stats.per_server[0].failed, 1u);
    EXPECT_EQ(stats.per_server[0].shed, 1u);
  }
}

TEST(FleetStats, FaultedRunsMatchTheOracle) {
  // End-to-end: a sole-replica crash produces real failed/shed records
  // spread across servers, and retries add attempts under the same global
  // id; the cut is over the injected trace, and every field must still
  // match the oracle at every jobs count.
  FleetTestbedConfig fc = MixedFleet(3, fleet::RouterPolicy::kHash, 5);
  fc.replicas = 1;
  const FleetTestbed tb(fc);
  const auto trace = tb.GenerateFleetTrace(1500.0, 3000, /*seed=*/5);
  fleet::FaultPlan plan;
  plan.name = "manual-crash";
  plan.events.push_back({trace.queries().back().arrival / 3,
                         fleet::FaultKind::kServerCrash, /*server=*/1});
  const auto result = tb.RunWithFaults(trace, plan, /*jobs=*/2);
  ASSERT_GT(result.fault.failed + result.fault.shed, 0u);
  const auto ref = testing::OracleFleetStats(result, tb.sla_target(), 0.1);
  EXPECT_GT(ref.aggregate.failed + ref.aggregate.shed, 0u);
  for (const int jobs : {1, 3}) {
    ExpectIdenticalFleetStats(result.Stats(tb.sla_target(), 0.1, jobs), ref,
                              "faulted jobs " + std::to_string(jobs));
  }
}

TEST(FleetStats, UnplacedModelRoutingErrorNamesTheModel) {
  // Regression: a fleet trace carrying a model id no server hosts must
  // surface as a logic_error naming the model, not UB in the replica
  // lookup.  Build the stray trace by hand -- the testbed's own
  // generator can only emit placed models.
  const FleetTestbed tb(MixedFleet(3, fleet::RouterPolicy::kPowerOfTwo, 9));
  workload::Query stray;
  stray.id = 0;
  stray.model_id = 42;  // zoo has 3 models
  const workload::QueryTrace trace(std::vector<workload::Query>{stray});
  try {
    tb.Run(trace, /*jobs=*/1);
    FAIL() << "routing an unplaced model did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("model 42"), std::string::npos)
        << "message: " << e.what();
  }
}

}  // namespace
}  // namespace pe::core
