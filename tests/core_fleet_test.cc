// FleetTestbed end-to-end tests, including the fleet driver's acceptance
// contract: record-by-record identical per-server results at --jobs 1, 2,
// and hardware concurrency, for every router policy.
#include "core/fleet_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "partition/mix.h"

namespace pe::core {
namespace {

FleetTestbedConfig SmallFleet(int servers, fleet::RouterPolicy policy) {
  FleetTestbedConfig fc;
  fc.mix.models.push_back({"resnet", 0.6, 6.0, 0.9});
  fc.mix.models.push_back({"mobilenet", 0.4, 4.0, 0.8});
  fc.mix.swap_cost_us = 200.0;
  fc.num_servers = servers;
  fc.policy = policy;
  return fc;
}

bool SameRecords(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& x = a.records[i];
    const auto& y = b.records[i];
    if (x.id != y.id || x.batch != y.batch || x.model != y.model ||
        x.arrival != y.arrival || x.started != y.started ||
        x.finished != y.finished || x.worker != y.worker ||
        x.model_swap != y.model_swap) {
      return false;
    }
  }
  return true;
}

TEST(FleetTestbed, BitIdenticalAcrossJobsForEveryPolicy) {
  const int hw = std::max(
      2, static_cast<int>(std::thread::hardware_concurrency()));
  for (const auto policy :
       {fleet::RouterPolicy::kHash, fleet::RouterPolicy::kLeastLoaded,
        fleet::RouterPolicy::kPowerOfTwo}) {
    const FleetTestbed tb(SmallFleet(4, policy));
    const auto trace = tb.GenerateFleetTrace(600.0, 4000, /*seed=*/7);
    const auto base = tb.Run(trace, 1);
    for (const int jobs : {2, hw}) {
      const auto run = tb.Run(trace, jobs);
      ASSERT_EQ(run.per_server.size(), base.per_server.size());
      for (std::size_t s = 0; s < base.per_server.size(); ++s) {
        EXPECT_TRUE(SameRecords(base.per_server[s], run.per_server[s]))
            << fleet::ToString(policy) << " server " << s
            << " diverged at jobs=" << jobs;
      }
    }
  }
}

TEST(FleetTestbed, PlansEveryServerAndServesTheWholeTrace) {
  const FleetTestbed tb(SmallFleet(3, fleet::RouterPolicy::kLeastLoaded));
  // Every server got a planner-filled MIG layout within its budget.
  for (int s = 0; s < tb.placement().num_servers(); ++s) {
    const auto& sp = tb.placement().server(s);
    ASSERT_FALSE(sp.partition_gpcs.empty());
    int total = 0;
    for (const int g : sp.partition_gpcs) total += g;
    EXPECT_LE(total, sp.gpc_budget);
  }
  const auto trace = tb.GenerateFleetTrace(450.0, 3000, /*seed=*/3);
  const auto stats =
      tb.Run(trace, 2).Stats(tb.sla_target(), /*warmup_fraction=*/0.1, 2);
  EXPECT_EQ(stats.routed_queries, trace.size());
  EXPECT_GT(stats.aggregate.completed, 0u);
  // Per-server ModelStats carry fleet-global model ids (0..1 here).
  for (const auto& server : stats.per_server) {
    for (const auto& m : server.models) {
      EXPECT_GE(m.model, 0);
      EXPECT_LT(m.model, 2);
    }
  }
}

TEST(FleetTestbed, RejectsAFrontendStage) {
  // Fleet servers have no frontend: an enabled one would be silently
  // ignored, so the constructor refuses it.
  FleetTestbedConfig fc = SmallFleet(2, fleet::RouterPolicy::kHash);
  fc.mix.frontend.enabled = true;
  EXPECT_THROW(FleetTestbed{fc}, std::invalid_argument);
}

TEST(FleetTestbed, ShardedPlacementPartitionsPerShard) {
  // Under sharding, a server plans a layout for the models it hosts, not
  // the whole zoo -- so a 1-model shard still yields a valid layout and
  // the fleet still serves every query of both models.
  FleetTestbedConfig fc = SmallFleet(4, fleet::RouterPolicy::kHash);
  fc.placement = fleet::PlacementKind::kSharded;
  fc.replicas = 2;
  const FleetTestbed tb(fc);
  const auto trace = tb.GenerateFleetTrace(500.0, 2500, /*seed=*/9);
  const auto stats =
      tb.Run(trace, 2).Stats(tb.sla_target(), /*warmup_fraction=*/0.1, 2);
  EXPECT_EQ(stats.routed_queries, trace.size());
  std::uint64_t routed = 0;
  for (const auto n : stats.routed_per_server) routed += n;
  EXPECT_EQ(routed, trace.size());
}

TEST(FleetTestbed, MemoizedReplanHookMatchesADirectPlan) {
  // 8 servers, 2 models, 4 replicas: servers 1-3 host the same pair, so
  // the memo is hit inside one down set as well as across repeats.
  FleetTestbedConfig fc = SmallFleet(8, fleet::RouterPolicy::kHash);
  fc.placement = fleet::PlacementKind::kSharded;
  fc.replicas = 4;
  const FleetTestbed tb(fc);
  const fleet::PlacementMap& placement = tb.placement();
  // Unmemoized: each hosted model's share scaled by full/surviving
  // replicas (kept nominal with no survivor), then mixed-PARIS.
  const auto direct = [&](int server, const std::vector<int>& down) {
    const fleet::ServerPlacement& sp = placement.server(server);
    auto inputs = tb.mix().PlannerInputs(sp.model_ids);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::vector<int>& reps = placement.Replicas(sp.model_ids[i]);
      const auto surviving =
          std::count_if(reps.begin(), reps.end(), [&](int r) {
            return std::find(down.begin(), down.end(), r) == down.end();
          });
      if (surviving > 0) {
        inputs[i].share *= static_cast<double>(reps.size()) /
                           static_cast<double>(surviving);
      }
    }
    return partition::PlanMixedParis(inputs, tb.mix().cluster(),
                                     sp.gpc_budget, fc.mix.paris)
        .plan.instance_gpcs;
  };
  // Copies of the hook share one memo; alternate between two of them.
  const fleet::ReplanFn hook = tb.MakeReplanFn();
  const fleet::ReplanFn copy = hook;
  const std::vector<std::vector<int>> sweep = {
      {0}, {0, 4}, {0}, {1, 2, 3}, {}, {0, 4}, {5, 6}, {}, {1, 2, 3}};
  std::vector<std::vector<std::vector<int>>> want(sweep.size());
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    for (int s = 0; s < placement.num_servers(); ++s) {
      want[k].push_back(direct(s, sweep[k]));
      const fleet::ReplanFn& call = (s + k) % 2 == 0 ? hook : copy;
      EXPECT_EQ(call(s, sweep[k]), want[k].back())
          << "down set " << k << ", server " << s;
    }
  }

  // Two threads share a fresh hook's memo and survivor counts, one
  // walking the sweep forward and one backward, so each keeps replacing
  // the down set the other's counts were taken for.
  const fleet::ReplanFn shared = tb.MakeReplanFn();
  constexpr int kRounds = 3;
  const auto walk = [&](fleet::ReplanFn call, bool backward) {
    std::vector<std::vector<int>> got;
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        const std::size_t k = backward ? sweep.size() - 1 - i : i;
        for (int s = 0; s < placement.num_servers(); ++s) {
          got.push_back(call(s, sweep[k]));
        }
      }
    }
    return got;
  };
  std::vector<std::vector<int>> forward;
  std::vector<std::vector<int>> backward;
  std::jthread other([&] { backward = walk(shared, /*backward=*/true); });
  forward = walk(shared, /*backward=*/false);
  other.join();
  const auto servers = static_cast<std::size_t>(placement.num_servers());
  ASSERT_EQ(forward.size(), kRounds * sweep.size() * servers);
  ASSERT_EQ(backward.size(), forward.size());
  for (std::size_t j = 0; j < forward.size(); ++j) {
    const std::size_t k = (j / servers) % sweep.size();
    const std::size_t back = sweep.size() - 1 - k;
    const std::size_t s = j % servers;
    EXPECT_EQ(forward[j], want[k][s])
        << "forward, down set " << k << ", server " << s;
    EXPECT_EQ(backward[j], want[back][s])
        << "backward, down set " << back << ", server " << s;
  }
}

TEST(FleetTestbed, RejectsDegenerateConfigs) {
  FleetTestbedConfig bad = SmallFleet(0, fleet::RouterPolicy::kHash);
  EXPECT_THROW(FleetTestbed{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace pe::core
