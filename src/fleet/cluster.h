// fleet::Cluster -- N inference servers behind one router tier.
//
// PR 1-5 built and tuned a single `sim::InferenceServer`; this module
// makes that server a composable unit.  A Cluster owns, per server:
//   * a slot in the fleet PlacementMap (hosted models, GPC budget, and the
//     concrete MIG layout),
//   * a server-local ModelRepertoire (the hosted subset of the fleet zoo,
//     re-numbered densely so Query::model_id keeps indexing it),
//   * an independent RNG stream derived as a *pure function* of
//     (fleet seed, server id) -- never by sequentially forking one
//     generator -- so no server shares draws with another and the streams
//     do not depend on the order servers are constructed or simulated.
//
// Simulate() routes the fleet trace through the configured policy once
// (serially: routing is the sequential front tier), then replays each
// per-server sub-trace on its own engine via common::ThreadPool's
// ParallelMap.  Each map task is a pure function of the server index, so
// the per-server records are bit-identical at any --jobs count -- the same
// discipline core/experiment established for probe fan-out.
//
// FleetStats pairs per-server ServerStats with a fleet-level aggregate
// over the union of all records, re-keyed to fleet-global query ids, model
// ids, and (server-offset) worker indices so percentiles, violation rates,
// and utilizations are measured over one coherent population.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/sim_time.h"
#include "fleet/fault.h"
#include "fleet/placement.h"
#include "fleet/router.h"
#include "profile/model_repertoire.h"
#include "sched/scheduler.h"
#include "sim/metrics.h"
#include "sim/server.h"
#include "workload/trace.h"

namespace pe::fleet {

// Builds the scheduler for one server.  Called once per server per
// Simulate(), potentially from several pool threads at once: the factory
// must be thread-safe and a pure function of its arguments (`repertoire`
// is the server's local repertoire and outlives the returned scheduler).
using SchedulerFactory = std::function<std::unique_ptr<sched::Scheduler>(
    int server_id, const profile::ModelRepertoire& repertoire)>;

struct FleetConfig {
  RouterPolicy policy = RouterPolicy::kHash;
  SimTime sla_target = 0;
  double latency_noise_sigma = 0.0;
  SimTime model_swap_cost = 0;
  std::uint64_t seed = 0x5EED;
};

struct FleetStats {
  int num_servers = 0;
  std::uint64_t routed_queries = 0;
  // Queries the router sent to each server (sub-trace sizes).
  std::vector<std::uint64_t> routed_per_server;
  // Fleet-level aggregate over every server's records (global model ids,
  // server-offset worker indices).
  sim::ServerStats aggregate;
  // Per-server stats under the same fleet-wide warmup cut as the
  // aggregate; ModelStats entries carry fleet-global model ids.
  std::vector<sim::ServerStats> per_server;
  // Fleet-level fault accounting (defaults when no fault plan ran; see
  // fleet/fault.h).  The aggregate/per_server latency figures above
  // exclude failed and shed attempts -- casualties are *counted* here
  // and in ServerStats::failed/shed, never sampled.
  FaultSummary fault;
};

struct FleetResult {
  // Per-server engine output: local query ids (dense per server) and
  // server-local model ids -- exactly what that server's engine saw.
  std::vector<sim::SimResult> per_server;
  // Local query id -> fleet-level Query::id, flat server-major (the
  // TraceSplit layout, each server's retries after its routed queries):
  // server s's ids live in global_ids[id_offsets[s], id_offsets[s+1]).
  std::vector<std::uint64_t> global_ids;
  std::vector<std::size_t> id_offsets;  // size num_servers + 1
  // Per server: local model id -> fleet-global model id (the server's
  // sorted hosted list).
  std::vector<std::vector<int>> global_models;
  // Per server: offset added to local worker indices to make them unique
  // fleet-wide (cumulative layout sizes).
  std::vector<int> worker_base;
  // Filled by fleet::SimulateWithFaults; defaults for fault-free runs.
  // Copied into FleetStats by Stats().
  FaultSummary fault;

  std::span<const std::uint64_t> GlobalIds(int s) const {
    const auto i = static_cast<std::size_t>(s);
    return {global_ids.data() + id_offsets[i],
            id_offsets[i + 1] - id_offsets[i]};
  }

  // Fleet statistics.  Records count iff their global query id clears
  // one fleet-wide warmup cut (sim::WarmupCut over the trace size: the
  // routed total, or fault.injected under fault injection).  Each
  // server's records reduce to a partial over up to `jobs` threads; a
  // partial's Finish is that server's per_server entry (global model ids,
  // local worker indices), and the partials merge into the aggregate with
  // worker indices shifted by worker_base.  Order-free arithmetic makes
  // the result identical at any jobs count.
  FleetStats Stats(SimTime sla_target, double warmup_fraction = 0.1,
                   int jobs = 1) const;
};

class Cluster {
 public:
  // `zoo` is the fleet-wide model repertoire the placement's model ids
  // index into; borrowed, must outlive the cluster.  Every server's
  // partition_gpcs must be non-empty (run a planner pass first).  Throws
  // std::invalid_argument on an unfilled layout or a placed model id
  // outside the zoo.
  Cluster(FleetConfig config, PlacementMap placement,
          const profile::ModelRepertoire& zoo, SchedulerFactory factory);

  // Pure per-server seed derivation: a SplitMix64-style mix of the fleet
  // seed and the server id.  Distinct ids map to distinct streams (the
  // mixer is bijective per fleet seed), and the result depends on nothing
  // but the two inputs -- simulating servers in any order, or any subset,
  // yields the same per-server streams.
  static std::uint64_t ServerSeed(std::uint64_t fleet_seed, int server_id);

  // The router's own stream, disjoint from every server stream (distinct
  // mixer domain).
  static std::uint64_t RouterSeed(std::uint64_t fleet_seed);

  const FleetConfig& config() const { return config_; }
  const PlacementMap& placement() const { return placement_; }
  int num_servers() const { return placement_.num_servers(); }
  const profile::ModelRepertoire& server_repertoire(int server_id) const;

  // Builds a fresh router for this cluster's policy/placement/seed.
  std::unique_ptr<Router> MakeFleetRouter() const;

  // The ServerConfig Simulate() builds for `server_id` (layout, SLA,
  // noise, per-server seed).  Exposed so external drivers --
  // fleet::SimulateWithFaults runs engines incrementally -- construct
  // bit-identical engines to the batch path.
  sim::ServerConfig MakeServerConfig(int server_id) const;

  // A fresh scheduler for `server_id` over its local repertoire, from
  // the cluster's factory.  Thread-safe (the factory must be).
  std::unique_ptr<sched::Scheduler> MakeScheduler(int server_id) const;

  // Fills `result`'s placement-derived tables (global_models,
  // worker_base) from this cluster's placement.  Callers supply the
  // per_server / global_ids / id_offsets trio themselves.
  void FillGlobalTables(FleetResult& result) const;

  // Routes `trace` and replays every sub-trace, fanning servers over up to
  // `jobs` threads.  Bit-identical per-server records for any jobs >= 1.
  // The split's id list becomes the result's, uncopied.
  FleetResult Simulate(const workload::QueryTrace& trace, int jobs) const;

  // Replays an already-split trace (the route+split stages factored out,
  // so the fleet-scaling bench can time them separately while both
  // pipelines share this simulate stage).  `split` must come from this
  // cluster's placement, and its trace must still be alive; each server
  // rebuilds its queries from that trace (LocalQueries) inside its own
  // task.
  FleetResult SimulateSplit(const TraceSplit& split, int jobs) const;

 private:
  // Every server's records for `split`, over up to `jobs` threads.
  std::vector<sim::SimResult> ReplayServers(const TraceSplit& split,
                                            int jobs) const;

  FleetConfig config_;
  PlacementMap placement_;
  const profile::ModelRepertoire* zoo_;
  SchedulerFactory factory_;
  // Per-server hosted subsets of the zoo, dense local ids.
  std::vector<profile::ModelRepertoire> repertoires_;
};

}  // namespace pe::fleet
