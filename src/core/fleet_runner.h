// FleetTestbed: the fleet-scale counterpart of MixTestbed.
//
// Owns everything a multi-server serving experiment needs:
//   * the model zoo, traffic mix, and shared SLA (delegated to an
//     embedded MixTestbed -- one server's world, reused N times; fleet
//     servers have no frontend stage, so an enabled one is rejected),
//   * the fleet PlacementMap (uniform replication or round-robin
//     sharding), with every server's MIG layout derived by running
//     mixed-PARIS over exactly the models that server hosts (a sharded
//     server partitions for its shard, not for the whole zoo),
//   * the fleet::Cluster wiring per-server repertoires, RNG streams, and
//     a scheduler factory for the configured SchedulerKind.
//
// Typical use (mirrors MixTestbed):
//   core::FleetTestbed ft(core::FleetTestbedConfig{...});
//   auto trace = ft.GenerateFleetTrace(2000.0, 1'000'000, /*seed=*/1);
//   auto stats = ft.Run(trace, /*jobs=*/8).Stats(ft.sla_target());
#pragma once

#include <cstdint>
#include <memory>

#include "core/mix_runner.h"
#include "core/server_builder.h"
#include "fleet/cluster.h"
#include "fleet/failover.h"
#include "fleet/fault.h"
#include "fleet/placement.h"
#include "fleet/router.h"
#include "sched/elsa.h"
#include "workload/trace.h"

namespace pe::core {

struct FleetTestbedConfig {
  // Model zoo, traffic shares, per-server GPC budget / GPU count, swap
  // cost, and noise all come from the mix config; gpc_budget applies to
  // every server.
  MixConfig mix;
  int num_servers = 4;
  fleet::PlacementKind placement = fleet::PlacementKind::kUniform;
  // Replica count per model under sharded placement (clamped to
  // [1, num_servers]); ignored for uniform.
  int replicas = 2;
  fleet::RouterPolicy policy = fleet::RouterPolicy::kHash;
  SchedulerKind scheduler = SchedulerKind::kElsa;
  sched::ElsaParams elsa;
  // Fleet seed: every server stream and the router stream derive from it
  // (fleet::Cluster::ServerSeed / RouterSeed).
  std::uint64_t seed = 0x5EED;
};

class FleetTestbed {
 public:
  explicit FleetTestbed(FleetTestbedConfig config);

  const MixTestbed& mix() const { return mix_; }
  const fleet::Cluster& cluster() const { return *cluster_; }
  const fleet::PlacementMap& placement() const {
    return cluster_->placement();
  }
  SimTime sla_target() const { return mix_.sla_target(); }

  // Fleet-level interleaved trace at `rate_qps` *total* offered load
  // (the router divides it across servers).
  workload::QueryTrace GenerateFleetTrace(double rate_qps,
                                          std::size_t num_queries,
                                          std::uint64_t seed) const;

  // Routes + replays `trace` over up to `jobs` threads; bit-identical
  // per-server records for any jobs >= 1.
  fleet::FleetResult Run(const workload::QueryTrace& trace, int jobs) const;

  // Resolves a parsed `--faults` reference into a concrete schedule over
  // `trace`'s span (last arrival) against this fleet's placement, seeded
  // by the fleet seed.  Throws std::invalid_argument on an unknown
  // preset/key or an empty trace.
  fleet::FaultPlan ResolveFaults(const fleet::FaultOptions& opts,
                                 const workload::QueryTrace& trace) const;

  // Runs `trace` under `plan`: health-patched routing, retry/shed
  // failover, and -- when plan.repartition -- degraded-capacity
  // repartition of survivors through mixed-PARIS (MakeReplanFn).  An
  // empty plan is bit-identical to Run().
  fleet::FleetResult RunWithFaults(const workload::QueryTrace& trace,
                                   const fleet::FaultPlan& plan,
                                   int jobs) const;

  // The degraded-capacity repartition hook RunWithFaults wires in: a
  // survivor's layout is partition::PlanMixedParis over this testbed's
  // planner inputs for its hosted models, each share scaled by
  // full/surviving replica counts (a model with no survivor keeps its
  // nominal share), on the per-server cluster and GPC budget.  The hook
  // memoizes its plans by (hosted models, surviving replicas of each, GPC
  // budget), the only inputs a plan depends on, so each distinct degraded
  // layout is planned once per hook.  Beside the memo it keeps every
  // model's surviving-replica count for the last down set it saw, counted
  // again only when the set changes, so a call under the same down set
  // costs O(hosted models) plus the memo lookup.  Copies share both under
  // one mutex and may be called from several threads.  Each call returns
  // a fresh hook with an empty memo.
  fleet::ReplanFn MakeReplanFn() const;

 private:
  FleetTestbedConfig config_;
  MixTestbed mix_;
  std::unique_ptr<fleet::Cluster> cluster_;
};

}  // namespace pe::core
