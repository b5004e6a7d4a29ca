#include "fleet/cluster.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace pe::fleet {

std::uint64_t Cluster::ServerSeed(std::uint64_t fleet_seed, int server_id) {
  // Domain-separated double mix: the inner term is unique per (seed, id),
  // the outer mix decorrelates neighbouring ids.  Mix64 is the shared
  // SplitMix64 step from common/rng.h.
  return Mix64(fleet_seed ^
               Mix64(0x5EEDF1EE7ULL + static_cast<std::uint64_t>(server_id)));
}

std::uint64_t Cluster::RouterSeed(std::uint64_t fleet_seed) {
  // Negative "server id" domain: no server can collide with it.
  return Mix64(fleet_seed ^ Mix64(0x12007E12ULL));
}

Cluster::Cluster(FleetConfig config, PlacementMap placement,
                 const profile::ModelRepertoire& zoo, SchedulerFactory factory)
    : config_(std::move(config)),
      placement_(std::move(placement)),
      zoo_(&zoo),
      factory_(std::move(factory)) {
  if (!factory_) {
    throw std::invalid_argument("Cluster: null scheduler factory");
  }
  if (placement_.num_models() > zoo.size()) {
    throw std::invalid_argument(
        "Cluster: placement places model ids the zoo does not register");
  }
  repertoires_.reserve(static_cast<size_t>(placement_.num_servers()));
  for (const ServerPlacement& sp : placement_.servers()) {
    if (sp.partition_gpcs.empty()) {
      throw std::invalid_argument(
          "Cluster: server " + std::to_string(sp.server_id) +
          " has no partition layout (run a planner pass first)");
    }
    // Hosted subset of the zoo: local id k is the k-th (ascending) hosted
    // global id, matching SplitTrace's re-mapping.  The subset shares the
    // zoo's ground-truth memo, so each cell is evaluated once fleet-wide.
    repertoires_.push_back(zoo.Subset(sp.model_ids));
  }
}

const profile::ModelRepertoire& Cluster::server_repertoire(
    int server_id) const {
  if (server_id < 0 || server_id >= num_servers()) {
    throw std::out_of_range("Cluster::server_repertoire: bad id " +
                            std::to_string(server_id));
  }
  return repertoires_[static_cast<size_t>(server_id)];
}

std::unique_ptr<Router> Cluster::MakeFleetRouter() const {
  return MakeRouter(config_.policy, placement_, zoo_,
                    RouterSeed(config_.seed));
}

FleetResult Cluster::Simulate(const workload::QueryTrace& trace,
                              int jobs) const {
  const auto router = MakeFleetRouter();
  TraceSplit split = SplitTrace(trace, *router, placement_, jobs);
  FleetResult result;
  result.per_server = ReplayServers(split, jobs);
  result.global_ids = std::move(split.global_ids);
  result.id_offsets = std::move(split.offsets);
  FillGlobalTables(result);
  return result;
}

sim::ServerConfig Cluster::MakeServerConfig(int server_id) const {
  const ServerPlacement& sp = placement_.server(server_id);
  sim::ServerConfig sc;
  sc.partition_gpcs = sp.partition_gpcs;
  sc.sla_target = config_.sla_target;
  sc.latency_noise_sigma = config_.latency_noise_sigma;
  sc.seed = ServerSeed(config_.seed, server_id);
  sc.model_swap_cost = config_.model_swap_cost;
  return sc;
}

std::unique_ptr<sched::Scheduler> Cluster::MakeScheduler(int server_id) const {
  const auto s = static_cast<std::size_t>(server_id);
  return factory_(server_id, repertoires_[s]);
}

void Cluster::FillGlobalTables(FleetResult& result) const {
  const auto n = static_cast<std::size_t>(num_servers());
  result.global_models.clear();
  result.worker_base.clear();
  result.global_models.reserve(n);
  result.worker_base.reserve(n);
  int worker_base = 0;
  for (const ServerPlacement& sp : placement_.servers()) {
    result.global_models.push_back(sp.model_ids);
    result.worker_base.push_back(worker_base);
    worker_base += static_cast<int>(sp.partition_gpcs.size());
  }
}

std::vector<sim::SimResult> Cluster::ReplayServers(const TraceSplit& split,
                                                   int jobs) const {
  if (split.num_servers() != num_servers()) {
    throw std::invalid_argument(
        "Cluster::SimulateSplit: split has " +
        std::to_string(split.num_servers()) + " servers, cluster has " +
        std::to_string(num_servers()));
  }
  // Pure function of the server index: config, placement, repertoire, and
  // sub-trace are all read-only, the scheduler is freshly built per task,
  // and the engine seed comes from the pure ServerSeed derivation.  The
  // engine copies each query into its record, so the rebuilt rows die
  // before the server simulates.
  const auto replay = [&](std::size_t s) {
    const int id = static_cast<int>(s);
    const auto scheduler = MakeScheduler(id);
    sim::InferenceServer server(MakeServerConfig(id), repertoires_[s],
                                *scheduler);
    server.InjectSpan(LocalQueries(split, placement_, id));
    return server.Finish();
  };
  return ParallelMap(static_cast<std::size_t>(num_servers()), jobs, replay);
}

FleetResult Cluster::SimulateSplit(const TraceSplit& split, int jobs) const {
  FleetResult result;
  result.per_server = ReplayServers(split, jobs);
  result.global_ids = split.global_ids;
  result.id_offsets = split.offsets;
  FillGlobalTables(result);
  return result;
}

FleetStats FleetResult::Stats(SimTime sla_target, double warmup_fraction,
                              int jobs) const {
  FleetStats stats;
  const std::size_t n = per_server.size();
  stats.num_servers = static_cast<int>(n);
  stats.fault = fault;
  if (n > 0 && (id_offsets.size() != n + 1 ||
                global_ids.size() != id_offsets.back() ||
                global_models.size() != n || worker_base.size() != n)) {
    throw std::invalid_argument(
        "FleetResult::Stats: global tables do not match per_server");
  }
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t records = per_server[s].records.size();
    if (GlobalIds(static_cast<int>(s)).size() != records) {
      throw std::invalid_argument("FleetResult::Stats: server " +
                                  std::to_string(s) +
                                  " has records without global ids");
    }
    stats.routed_per_server.push_back(records);
    stats.routed_queries += records;
  }
  // One fleet-wide warmup cut over global query ids.  The population is
  // the trace: every routed query, or under fault injection every
  // injected one (retried attempts add records, not queries), so all
  // attempts of a query fall on the same side of the cut.
  const std::uint64_t cut = sim::WarmupCut(
      warmup_fraction, fault.faulted ? fault.injected : stats.routed_queries);

  // One partial per server, under the shared cut; each partial's Finish
  // is that server's entry, and the partials then merge into the
  // aggregate.  Every reduction is order-free, so jobs changes nothing.
  stats.per_server.resize(n);
  auto partials = ParallelMap(n, jobs, [&](std::size_t s) {
    sim::StatsAccumulator partial(sla_target);
    const std::span<const std::uint64_t> ids = GlobalIds(static_cast<int>(s));
    const std::vector<int>& models = global_models[s];
    for (const sim::QueryRecord& r : per_server[s].records) {
      if (ids[r.id] < cut) continue;
      partial.Add(r, models[static_cast<std::size_t>(r.model)]);
    }
    stats.per_server[s] = partial.Finish();
    return partial;
  });
  sim::StatsAccumulator aggregate(sla_target);
  for (std::size_t s = 0; s < n; ++s) {
    aggregate.Merge(std::move(partials[s]), worker_base[s]);
  }
  stats.aggregate = aggregate.Finish();
  return stats;
}

}  // namespace pe::fleet
