// Router-tier unit tests: every policy must route a trace
// deterministically, respect the placement's replica sets, and reproduce
// its decision sequence after Reset() -- the properties the fleet driver's
// bit-identity claim rests on.  Assignment and split digests pin each
// policy's decisions to checked-in values.
#include "fleet/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fleet/placement.h"
#include "golden_digest.h"
#include "profile/model_repertoire.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace pe::fleet {
namespace {

workload::QueryTrace MakeTrace(std::size_t n, int num_models,
                               std::uint64_t seed) {
  workload::ScenarioSpec spec;
  spec.rate.base_qps = 500.0;
  for (int m = 0; m < num_models; ++m) {
    workload::ComponentSpec c;
    c.model_id = m;
    c.weight = 1.0 / num_models;
    spec.components.push_back(c);
  }
  return workload::GenerateScenarioTrace(spec, n, seed);
}

std::vector<int> RouteSerially(Router& router,
                               const workload::QueryTrace& trace) {
  return router.RouteAll(trace, /*jobs=*/1);
}

// A sharded placement with filled, heterogeneous layouts (three cost
// classes) and the zoo's profiles behind the backlog model.
struct DigestFleet {
  PlacementMap placement = ShardedPlacement(7, 4, 3);
  profile::ModelRepertoire zoo = profile::BuildZooRepertoire(
      {"resnet", "mobilenet", "bert", "shufflenet"});
  workload::QueryTrace trace = MakeTrace(140'000, 4, /*seed=*/23);

  DigestFleet() {
    const std::vector<std::vector<int>> layouts = {
        {1, 2, 4}, {7}, {1, 1, 2, 3}};
    for (int s = 0; s < placement.num_servers(); ++s) {
      placement.mutable_server(s).partition_gpcs =
          layouts[static_cast<std::size_t>(s) % layouts.size()];
    }
  }
};

TEST(RouterPolicy, ParseAndToStringRoundTrip) {
  for (const auto policy : {RouterPolicy::kHash, RouterPolicy::kLeastLoaded,
                            RouterPolicy::kPowerOfTwo}) {
    const auto parsed = ParseRouterPolicy(ToString(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseRouterPolicy("roundrobin").has_value());
  EXPECT_FALSE(ParsePlacementKind("striped").has_value());
}

TEST(Router, EveryPolicyRespectsReplicaSets) {
  // 6 servers, 4 models, 2 replicas each: routing a model anywhere but
  // its replica set would hand a server a query it cannot serve.
  const auto placement = ShardedPlacement(6, 4, 2);
  const auto trace = MakeTrace(2000, 4, /*seed=*/11);
  for (const auto policy : {RouterPolicy::kHash, RouterPolicy::kLeastLoaded,
                            RouterPolicy::kPowerOfTwo}) {
    auto router = MakeRouter(policy, placement, nullptr, /*seed=*/99);
    const auto assignment = RouteSerially(*router, trace);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& q = trace.queries()[i];
      const int server = assignment[i];
      const auto& reps = placement.Replicas(q.model_id);
      EXPECT_NE(std::find(reps.begin(), reps.end(), server), reps.end())
          << ToString(policy) << " routed model " << q.model_id
          << " to non-replica server " << server;
    }
  }
}

TEST(Router, DeterministicAcrossFreshInstances) {
  const auto placement = UniformPlacement(8, 3);
  const auto trace = MakeTrace(3000, 3, /*seed=*/5);
  for (const auto policy : {RouterPolicy::kHash, RouterPolicy::kLeastLoaded,
                            RouterPolicy::kPowerOfTwo}) {
    auto a = MakeRouter(policy, placement, nullptr, /*seed=*/42);
    auto b = MakeRouter(policy, placement, nullptr, /*seed=*/42);
    EXPECT_EQ(RouteSerially(*a, trace), RouteSerially(*b, trace))
        << ToString(policy);
  }
}

TEST(Router, AssignmentsMatchCheckedInDigests) {
  // Repertoire-backed backlog charges (the memoized cost tables), a trace
  // long enough for hash routing to split into parallel chunks; every
  // policy must give the same assignment at jobs 1 and 3 and after Reset.
  const DigestFleet fleet;
  const struct {
    RouterPolicy policy;
    std::uint64_t digest;
  } kCases[] = {
      {RouterPolicy::kHash, 0x27cc0342a12def66},
      {RouterPolicy::kLeastLoaded, 0x1142359311411e15},
      {RouterPolicy::kPowerOfTwo, 0xa57fa26d203349d9},
  };
  for (const auto& c : kCases) {
    auto router = MakeRouter(c.policy, fleet.placement, &fleet.zoo,
                             /*seed=*/31);
    const auto serial = router->RouteAll(fleet.trace, /*jobs=*/1);
    testing::ExpectDigest(testing::DigestAssignment(serial), c.digest,
                          ToString(c.policy));
    router->Reset();
    EXPECT_EQ(router->RouteAll(fleet.trace, /*jobs=*/3), serial)
        << ToString(c.policy) << " jobs 3 after Reset";
  }
}

TEST(Router, WideReplicaSetsMatchCheckedInDigests) {
  // po2c draws its candidates over [0, n-1] and [0, n-2]; replica counts
  // of 10 and 50 give spans (10, 9, 50, 49) that are not powers of two,
  // so any change to the draw's remainder or rejection moves the digest.
  // least-loaded scans the whole set.  Sharding with one server fewer
  // than models + replicas gives every model exactly `replicas` servers;
  // layouts cycle through five cost classes.
  const profile::ModelRepertoire zoo = profile::BuildZooRepertoire(
      {"resnet", "mobilenet", "bert", "shufflenet"});
  const workload::QueryTrace trace = MakeTrace(60'000, 4, /*seed=*/29);
  const std::vector<std::vector<int>> layouts = {
      {1, 2, 4}, {7}, {1, 1, 2, 3}, {3, 4}, {2, 2, 3}};
  const struct {
    int servers;
    int replicas;
    RouterPolicy policy;
    std::uint64_t digest;
  } kCases[] = {
      {13, 10, RouterPolicy::kPowerOfTwo, 0x70de3c7a241b9a69},
      {13, 10, RouterPolicy::kLeastLoaded, 0x06721f35c7543cf6},
      {53, 50, RouterPolicy::kPowerOfTwo, 0xa3e0464a337dfb5b},
      {53, 50, RouterPolicy::kLeastLoaded, 0xe9931044d017232c},
  };
  for (const auto& c : kCases) {
    PlacementMap placement = ShardedPlacement(c.servers, 4, c.replicas);
    for (int s = 0; s < placement.num_servers(); ++s) {
      placement.mutable_server(s).partition_gpcs =
          layouts[static_cast<std::size_t>(s) % layouts.size()];
    }
    for (int m = 0; m < 4; ++m) {
      ASSERT_EQ(placement.Replicas(m).size(),
                static_cast<std::size_t>(c.replicas));
    }
    auto router = MakeRouter(c.policy, placement, &zoo, /*seed=*/37);
    testing::ExpectDigest(
        testing::DigestAssignment(router->RouteAll(trace, /*jobs=*/1)),
        c.digest,
        std::string(ToString(c.policy)) + " x" + std::to_string(c.replicas));
  }
}

TEST(Router, ResetReproducesTheDecisionSequence) {
  // po2c is the only stateful-RNG policy; least-loaded carries a virtual
  // backlog clock.  Both must replay identically after Reset().
  const auto placement = UniformPlacement(5, 2);
  const auto trace = MakeTrace(1500, 2, /*seed=*/3);
  for (const auto policy : {RouterPolicy::kHash, RouterPolicy::kLeastLoaded,
                            RouterPolicy::kPowerOfTwo}) {
    auto router = MakeRouter(policy, placement, nullptr, /*seed=*/7);
    const auto first = RouteSerially(*router, trace);
    router->Reset();
    EXPECT_EQ(RouteSerially(*router, trace), first) << ToString(policy);
  }
}

TEST(Router, PoliciesActuallyDiffer) {
  // Sanity that the three policies are not the same function in disguise:
  // on a uniform placement with many servers they should not produce the
  // identical assignment vector.
  const auto placement = UniformPlacement(8, 2);
  const auto trace = MakeTrace(2000, 2, /*seed=*/13);
  auto hash = MakeRouter(RouterPolicy::kHash, placement, nullptr, 1);
  auto least = MakeRouter(RouterPolicy::kLeastLoaded, placement, nullptr, 1);
  auto po2c = MakeRouter(RouterPolicy::kPowerOfTwo, placement, nullptr, 1);
  const auto h = RouteSerially(*hash, trace);
  const auto l = RouteSerially(*least, trace);
  const auto p = RouteSerially(*po2c, trace);
  EXPECT_NE(h, l);
  EXPECT_NE(h, p);
  EXPECT_NE(l, p);
}

TEST(SplitTrace, DenseLocalIdsAndModelRemap) {
  const auto placement = ShardedPlacement(4, 3, 2);
  const auto trace = MakeTrace(2500, 3, /*seed=*/17);
  auto router = MakeRouter(RouterPolicy::kHash, placement, nullptr, 1);
  const auto split = SplitTrace(trace, *router, placement);

  ASSERT_EQ(split.num_servers(), 4);
  ASSERT_EQ(split.trace, &trace);
  ASSERT_EQ(split.global_ids.size(), trace.size());
  std::size_t total = 0;
  std::vector<bool> seen(trace.size(), false);
  for (int s = 0; s < 4; ++s) {
    const auto& sp = placement.server(s);
    const auto queries = LocalQueries(split, placement, s);
    const auto gids = split.GlobalIds(s);
    ASSERT_EQ(gids.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      // Engine contract: local ids are dense injection indices.
      EXPECT_EQ(queries[i].id, i);
      // Local model ids index the server's sorted hosted list.
      ASSERT_GE(queries[i].model_id, 0);
      ASSERT_LT(queries[i].model_id,
                static_cast<int>(sp.model_ids.size()));
      const auto gid = gids[i];
      ASSERT_LT(gid, trace.size());
      EXPECT_FALSE(seen[gid]) << "query " << gid << " routed twice";
      seen[gid] = true;
      // The remap preserves the query's identity: same arrival/batch, and
      // the local model id maps back to the fleet-global one.
      const auto& original = trace.queries()[gid];
      EXPECT_EQ(queries[i].arrival, original.arrival);
      EXPECT_EQ(queries[i].batch, original.batch);
      EXPECT_EQ(sp.model_ids[static_cast<std::size_t>(queries[i].model_id)],
                original.model_id);
    }
    total += queries.size();
  }
  EXPECT_EQ(total, trace.size());
}

TEST(SplitTrace, SplitMatchesCheckedInDigest) {
  const DigestFleet fleet;
  for (const int jobs : {1, 3}) {
    auto router = MakeRouter(RouterPolicy::kPowerOfTwo, fleet.placement,
                             &fleet.zoo, /*seed=*/71);
    const auto split = SplitTrace(fleet.trace, *router, fleet.placement, jobs);
    testing::ExpectDigest(testing::DigestSplit(split, fleet.placement),
                          0x9df1d048a24099ef,
                          "po2c split, jobs " + std::to_string(jobs));
  }
}

TEST(Router, UnplacedModelThrowsLogicErrorNamingTheModel) {
  // Regression: routing a model no server hosts used to be UB (indexing
  // an out-of-range / empty replica set); every policy must now throw a
  // logic_error that names the offending model, whether routed alone or
  // through the split.
  const auto placement = ShardedPlacement(3, 2, 2);
  workload::Query stray;
  stray.id = 0;
  stray.model_id = 9;  // only models 0..1 are placed
  workload::QueryTrace stray_trace(std::vector<workload::Query>{stray});
  for (const auto policy : {RouterPolicy::kHash, RouterPolicy::kLeastLoaded,
                            RouterPolicy::kPowerOfTwo}) {
    auto router = MakeRouter(policy, placement, nullptr, /*seed=*/5);
    try {
      router->RouteAll(stray_trace, /*jobs=*/1);
      FAIL() << ToString(policy) << ": RouteAll accepted an unplaced model";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("model 9"), std::string::npos)
          << ToString(policy) << " message: " << e.what();
    }
    router->Reset();
    EXPECT_THROW(SplitTrace(stray_trace, *router, placement),
                 std::logic_error)
        << ToString(policy);
  }
}

TEST(SplitByAssignment, DropsPreShedQueriesAndKeepsDenseIds) {
  // The failover driver routes around planned downtime and marks
  // no-healthy-replica queries with -1; the split must skip exactly those
  // while renumbering the survivors densely.
  const auto placement = UniformPlacement(3, 2);
  const auto trace = MakeTrace(900, 2, /*seed=*/53);
  auto router = MakeRouter(RouterPolicy::kHash, placement, nullptr, 1);
  auto assignment = router->RouteAll(trace, /*jobs=*/1);
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < assignment.size(); i += 7) {
    assignment[i] = -1;
    ++dropped;
  }
  const auto split = SplitByAssignment(trace, assignment, placement);
  ASSERT_EQ(split.global_ids.size(), trace.size() - dropped);
  std::size_t total = 0;
  for (int s = 0; s < 3; ++s) {
    const auto queries = LocalQueries(split, placement, s);
    const auto gids = split.GlobalIds(s);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(queries[i].id, i);  // dense after the drops
      EXPECT_NE(gids[i] % 7, 0u);   // no dropped query survived
    }
    total += queries.size();
  }
  EXPECT_EQ(total, trace.size() - dropped);

  // Size mismatch between trace and assignment is a caller bug.
  assignment.pop_back();
  EXPECT_THROW(SplitByAssignment(trace, assignment, placement),
               std::logic_error);
}

TEST(SplitByAssignment, ErrorsNameTheSameRowAtAnyJobs) {
  // Two 64k-row chunks, a bad server id in chunk 0 and a bad query id in
  // chunk 1: the serial precedence holds across chunks (a bad query id
  // anywhere wins), and every jobs count names the same first bad row.
  const auto placement = UniformPlacement(3, 2);
  const auto trace = MakeTrace(70'000, 2, /*seed=*/61);
  auto router = MakeRouter(RouterPolicy::kHash, placement, nullptr, 1);
  std::vector<int> assignment = router->RouteAll(trace, /*jobs=*/1);
  assignment[100] = 3;
  assignment[68'000] = -2;
  std::vector<workload::Query> rows = trace.queries();
  rows[69'990].id = 5;
  rows[69'995].id = 6;
  const workload::QueryTrace bad_ids(rows);

  const auto error = [&](const workload::QueryTrace& t, int jobs) {
    try {
      SplitByAssignment(t, assignment, placement, jobs);
    } catch (const std::invalid_argument& e) {
      return "invalid_argument: " + std::string(e.what());
    } catch (const std::logic_error& e) {
      return "logic_error: " + std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string id_error = error(bad_ids, 1);
  EXPECT_EQ(id_error.rfind("invalid_argument: ", 0), 0u) << id_error;
  EXPECT_NE(id_error.find("trace row 69990 has query id 5"), std::string::npos)
      << id_error;
  EXPECT_EQ(error(bad_ids, 3), id_error);

  // With valid ids, the first bad server id is the error.
  const std::string server_error = error(trace, 1);
  EXPECT_EQ(server_error.rfind("logic_error: ", 0), 0u) << server_error;
  EXPECT_NE(server_error.find("trace row 100 has bad server id 3"),
            std::string::npos)
      << server_error;
  EXPECT_EQ(error(trace, 3), server_error);
}

TEST(Placement, ValidatesAndShards) {
  EXPECT_THROW(UniformPlacement(0, 2), std::invalid_argument);
  EXPECT_THROW(UniformPlacement(2, 0), std::invalid_argument);
  const auto sharded = ShardedPlacement(5, 3, 2);
  // Every model has at least its 2 round-robin replicas (the backfill
  // rule may add more on otherwise-empty servers), all distinct.
  for (int m = 0; m < 3; ++m) {
    const auto& reps = sharded.Replicas(m);
    ASSERT_GE(reps.size(), 2u);
    std::set<int> distinct(reps.begin(), reps.end());
    EXPECT_EQ(distinct.size(), reps.size());
  }
  // Every server hosts at least one model (backfill rule).
  for (int s = 0; s < 5; ++s) {
    EXPECT_FALSE(sharded.server(s).model_ids.empty());
  }
}

}  // namespace
}  // namespace pe::fleet
