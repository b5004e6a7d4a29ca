#include "core/fleet_runner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "partition/mix.h"

namespace pe::core {

namespace {

fleet::PlacementMap BuildPlacement(const FleetTestbedConfig& config,
                                   int num_models) {
  switch (config.placement) {
    case fleet::PlacementKind::kUniform:
      return fleet::UniformPlacement(config.num_servers, num_models,
                                     config.mix.gpc_budget);
    case fleet::PlacementKind::kSharded:
      return fleet::ShardedPlacement(config.num_servers, num_models,
                                     config.replicas,
                                     config.mix.gpc_budget);
  }
  throw std::invalid_argument("FleetTestbed: unknown placement kind");
}

}  // namespace

FleetTestbed::FleetTestbed(FleetTestbedConfig config)
    : config_(std::move(config)), mix_(config_.mix) {
  if (config_.num_servers < 1) {
    throw std::invalid_argument("FleetTestbed: num_servers must be >= 1");
  }
  if (config_.mix.frontend.enabled) {
    throw std::invalid_argument(
        "FleetTestbed: fleet servers have no frontend stage");
  }

  fleet::PlacementMap placement =
      BuildPlacement(config_, mix_.num_models());

  // Planner pass: each server gets a mixed-PARIS layout for exactly the
  // models it hosts, their global traffic shares renormalized within the
  // server (ShareBudgets normalizes internally).
  for (int s = 0; s < placement.num_servers(); ++s) {
    fleet::ServerPlacement& sp = placement.mutable_server(s);
    sp.partition_gpcs =
        partition::PlanMixedParis(mix_.PlannerInputs(sp.model_ids),
                                  mix_.cluster(), sp.gpc_budget,
                                  config_.mix.paris)
            .plan.instance_gpcs;
  }

  fleet::FleetConfig fc;
  fc.policy = config_.policy;
  fc.sla_target = mix_.sla_target();
  fc.latency_noise_sigma = config_.mix.latency_noise_sigma;
  fc.model_swap_cost = mix_.swap_cost();
  fc.seed = config_.seed;

  // Value-captured so the factory is self-contained (it runs on pool
  // threads during Simulate); the per-server repertoire argument is owned
  // by the cluster and outlives the scheduler.
  const SchedulerKind kind = config_.scheduler;
  const sched::ElsaParams elsa = config_.elsa;
  const double swap_cost_sec = config_.mix.swap_cost_us * 1e-6;
  const SimTime sla = mix_.sla_target();
  fleet::SchedulerFactory factory =
      [kind, elsa, swap_cost_sec, sla](
          int /*server_id*/, const profile::ModelRepertoire& repertoire) {
        return MakeScheduler(kind, repertoire, sla, elsa, swap_cost_sec);
      };

  cluster_ = std::make_unique<fleet::Cluster>(fc, std::move(placement),
                                              mix_.repertoire(),
                                              std::move(factory));
}

workload::QueryTrace FleetTestbed::GenerateFleetTrace(
    double rate_qps, std::size_t num_queries, std::uint64_t seed) const {
  return mix_.GenerateMix(rate_qps, num_queries, seed);
}

fleet::FleetResult FleetTestbed::Run(const workload::QueryTrace& trace,
                                     int jobs) const {
  return cluster_->Simulate(trace, jobs);
}

fleet::FaultPlan FleetTestbed::ResolveFaults(
    const fleet::FaultOptions& opts,
    const workload::QueryTrace& trace) const {
  if (trace.size() == 0) {
    throw std::invalid_argument("ResolveFaults: empty trace");
  }
  const SimTime span = trace.queries().back().arrival;
  return fleet::ResolveFaultPlan(opts, placement(), std::max<SimTime>(span, 1),
                                 config_.seed);
}

fleet::FleetResult FleetTestbed::RunWithFaults(
    const workload::QueryTrace& trace, const fleet::FaultPlan& plan,
    int jobs) const {
  return fleet::SimulateWithFaults(*cluster_, trace, plan, jobs,
                                   plan.repartition ? MakeReplanFn()
                                                    : fleet::ReplanFn{});
}

fleet::ReplanFn FleetTestbed::MakeReplanFn() const {
  // A degraded layout depends only on the server's hosted models, the
  // surviving replica count of each, and its GPC budget, and a run asks
  // for the same few of those after every crash and recovery: each is
  // planned once.  A run also asks for many survivors under one down set
  // before the set changes, so every model's surviving count is counted
  // once per down set and kept beside the memo.  Copies of the hook share
  // both, so they are locked.
  struct Memo {
    std::mutex mu;
    // The down set `surviving` was counted for; every replica survives
    // the empty one.
    std::vector<int> down;
    std::vector<int> surviving;  // per fleet model
    // {gpc_budget, model, surviving, model, surviving, ...} -> layout
    std::map<std::vector<int>, std::vector<int>> layouts;
  };
  auto memo = std::make_shared<Memo>();
  for (int m = 0; m < placement().num_models(); ++m) {
    memo->surviving.push_back(
        static_cast<int>(placement().Replicas(m).size()));
  }
  // The planner inputs borrow profiles and batch distributions from mix_,
  // which this testbed owns and outlives every RunWithFaults call.
  return [this, memo](int server, const std::vector<int>& down) {
    const fleet::ServerPlacement& sp = placement().server(server);
    std::vector<int> surviving(sp.model_ids.size(), 0);
    std::vector<int> key = {sp.gpc_budget};
    {
      const std::lock_guard<std::mutex> lock(memo->mu);
      if (down != memo->down) {
        memo->down = down;
        for (int m = 0; m < placement().num_models(); ++m) {
          const std::vector<int>& reps = placement().Replicas(m);
          memo->surviving[static_cast<std::size_t>(m)] =
              static_cast<int>(std::count_if(
                  reps.begin(), reps.end(), [&](int r) {
                    return !std::binary_search(down.begin(), down.end(), r);
                  }));
        }
      }
      for (std::size_t i = 0; i < sp.model_ids.size(); ++i) {
        surviving[i] =
            memo->surviving[static_cast<std::size_t>(sp.model_ids[i])];
        key.push_back(sp.model_ids[i]);
        key.push_back(surviving[i]);
      }
      const auto hit = memo->layouts.find(key);
      if (hit != memo->layouts.end()) return hit->second;
    }
    // Each survivor of a hosted model absorbs full/surviving times its
    // nominal share.  A model with no survivor keeps its nominal share:
    // nobody serves it, so it must not warp the survivors' budgets.
    std::vector<partition::MixModelInput> inputs =
        mix_.PlannerInputs(sp.model_ids);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (surviving[i] == 0) continue;
      const std::size_t full = placement().Replicas(sp.model_ids[i]).size();
      inputs[i].share *=
          static_cast<double>(full) / static_cast<double>(surviving[i]);
    }
    std::vector<int> layout =
        partition::PlanMixedParis(inputs, mix_.cluster(), sp.gpc_budget,
                                  config_.mix.paris)
            .plan.instance_gpcs;
    const std::lock_guard<std::mutex> lock(memo->mu);
    memo->layouts.emplace(std::move(key), layout);
    return layout;
  };
}

}  // namespace pe::core
