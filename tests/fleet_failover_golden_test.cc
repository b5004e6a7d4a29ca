// Golden digests for the fault-tolerant fleet driver.  Each cell runs one
// fault preset through FleetTestbed::RunWithFaults and folds every
// per-server record, the global-id tables and every FaultSummary field
// (the bit patterns of availability and p99_incident_ms included) into
// one checked-in value, at jobs 1 and 3.  The trace is longer than one
// 64k-row split chunk, and the fleet has servers sharing a model set, so
// the replan hook sees the same inputs more than once.  A mismatch prints
// the actual digest.
#include "fleet/failover.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet_runner.h"
#include "fleet/fault.h"
#include "golden_digest.h"
#include "workload/trace.h"

namespace pe::fleet {
namespace {

// 8 servers, 2 models, 4 replicas: model 0 on {0, 1, 2, 3, 6} and model
// 1 on {1, 2, 3, 4, 5, 7}, so servers 1-3 host the same pair.
core::FleetTestbedConfig GoldenFleet(RouterPolicy policy) {
  core::FleetTestbedConfig fc;
  fc.mix.models.push_back({"resnet", 0.6, 6.0, 0.9});
  fc.mix.models.push_back({"mobilenet", 0.4, 4.0, 0.8});
  fc.mix.swap_cost_us = 200.0;
  fc.num_servers = 8;
  fc.placement = PlacementKind::kSharded;
  fc.replicas = 4;
  fc.policy = policy;
  return fc;
}

std::uint64_t DigestFaultedRun(const FleetResult& r) {
  testing::Fnv1a h;
  for (const sim::SimResult& server : r.per_server) {
    h.Add(server.records.size());
    for (const sim::QueryRecord& rec : server.records) {
      testing::AddRecord(h, rec);
    }
  }
  for (const std::uint64_t g : r.global_ids) h.Add(g);
  for (const std::size_t o : r.id_offsets) h.Add(o);
  for (const std::vector<int>& models : r.global_models) {
    h.Add(models.size());
    for (const int m : models) h.AddSigned(m);
  }
  for (const int base : r.worker_base) h.AddSigned(base);
  const FaultSummary& f = r.fault;
  h.Add(f.faulted ? 1 : 0);
  h.Add(f.injected);
  h.Add(f.completed);
  h.Add(f.failed);
  h.Add(f.shed);
  h.Add(f.retried);
  h.Add(f.rerouted);
  h.Add(f.incidents);
  h.Add(f.repartitions);
  h.AddSigned(f.makespan);
  h.Add(f.availability.size());
  for (const double a : f.availability) h.AddDouble(a);
  h.AddDouble(f.p99_incident_ms);
  h.Add(f.incident_completions);
  return h.value();
}

TEST(FleetFailoverGolden, FaultedRunsMatchCheckedInDigests) {
  constexpr std::size_t kQueries = 70'000;  // two 64k-row split chunks
  const struct {
    const char* faults;
    RouterPolicy policy;
    double rate_qps;
    std::uint64_t digest;
  } kCells[] = {
      // Recovery, a deadline that sheds some casualties, and repartition.
      {"serverloss:count=2,down-ms=6000,deadline-ms=60,downtime-ms=20",
       RouterPolicy::kPowerOfTwo, 4400.0, 0x80732885c69b1d83},
      // Staggered crashes with repartition; no retries, so casualties fail.
      {"cascade:count=3,stagger-ms=2000,down-ms=5000,retries=0",
       RouterPolicy::kPowerOfTwo, 4400.0, 0x88e0f112eb2ae7d9},
      {"flaky:count=40,down-ms=3000", RouterPolicy::kHash, 4400.0,
       0x76f510bce46357e8},
      {"brownout:count=3,factor=2.5", RouterPolicy::kLeastLoaded, 2400.0,
       0x7fad57e73f77cb9e},
  };
  for (const auto& cell : kCells) {
    const core::FleetTestbed tb(GoldenFleet(cell.policy));
    const auto trace =
        tb.GenerateFleetTrace(cell.rate_qps, kQueries, /*seed=*/29);
    const FaultPlan plan = tb.ResolveFaults(ParseFaultRef(cell.faults), trace);
    for (const int jobs : {1, 3}) {
      const FleetResult result = tb.RunWithFaults(trace, plan, jobs);
      const FaultSummary& f = result.fault;
      EXPECT_EQ(f.completed + f.failed + f.shed, f.injected) << cell.faults;
      testing::ExpectDigest(DigestFaultedRun(result), cell.digest,
                            std::string(cell.faults) + ", jobs " +
                                std::to_string(jobs));
    }
  }
}

}  // namespace
}  // namespace pe::fleet
