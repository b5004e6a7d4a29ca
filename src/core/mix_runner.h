// MixTestbed: the one single-server testbed.
//
// Owns, for a mix of DNN models sharing one MIG server:
//   * a ModelRepertoire (per-model profile table + ground-truth latency),
//   * per-model batch-size distributions and traffic shares,
//   * the physical cluster and the GPC budget,
//   * one SLA target (the strictest rule across the mix: the max of the
//     per-model Section V targets -- per-model SLA scheduling is a
//     follow-on, see ROADMAP).
//
// A single model is the one-model mix: Table1Config(model) sizes it as the
// paper's evaluation does, and PlanMixed() then is PARIS on the whole
// budget.  From the testbed, callers derive mixed-PARIS, homogeneous and
// random layouts, generate interleaved traces, and run trace-driven
// simulations with a configurable model-swap penalty and frontend stage.
//
// Typical use (see examples/quickstart.cpp):
//   const core::MixTestbed tb(core::Table1Config("resnet"));
//   const auto plan = tb.PlanMixed().plan;
//   auto elsa = tb.MakeScheduler(core::SchedulerKind::kElsa);
//   core::RunOptions run;
//   run.rate_qps = 500;
//   const auto stats =
//       tb.Run(plan.instance_gpcs, *elsa, run).Stats(tb.sla_target());
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/server_builder.h"
#include "hw/cluster.h"
#include "hw/gpu_spec.h"
#include "partition/mix.h"
#include "partition/paris.h"
#include "perf/roofline.h"
#include "profile/model_repertoire.h"
#include "sched/scheduler.h"
#include "sim/server.h"
#include "workload/batch_dist.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace pe::core {

struct MixModelConfig {
  std::string model = "resnet";  // model-zoo name
  double share = 1.0;            // relative traffic weight
  // Batch-size distribution (paper defaults).
  double dist_median = 6.0;
  double dist_sigma = 0.9;
};

struct MixConfig {
  std::vector<MixModelConfig> models;
  int max_batch = 32;
  // SLA target multiplier N (Section V); finite and > 0.
  double sla_n = 1.5;
  // Cluster size and GPC budget; each >= 1.
  int num_gpus = 8;
  int gpc_budget = 48;
  // Model-swap penalty charged when a partition starts a query of a model
  // other than its resident one; finite, >= 0 and below 2^63 ns.
  double swap_cost_us = 0.0;
  // Execution-time noise (log-space sigma); finite and >= 0.
  double latency_noise_sigma = 0.0;
  // Optional preprocessing stage in front of the queue (single servers
  // only: FleetTestbed rejects an enabled one).
  sim::FrontendConfig frontend;
  perf::RooflineParams roofline;
  hw::GpuSpec gpu;
  partition::ParisConfig paris;
};

// A one-model config sized from `model`'s Table I row: its A100 count and
// PARIS GPC budget, with the paper's log-normal batch defaults.  Throws
// std::invalid_argument for a model Table I does not list.
MixConfig Table1Config(const std::string& model);

// The generate-then-run form of MixTestbed::Run.
struct RunOptions {
  double rate_qps = 100.0;
  std::size_t num_queries = 10000;
  std::uint64_t seed = 1;
};

class MixTestbed {
 public:
  // Throws std::invalid_argument naming the offending field of a bad
  // config (see MixConfig), an empty or duplicated model list, a negative
  // share or shares summing to zero, or an SLA target past the tick
  // clock.
  explicit MixTestbed(MixConfig config);

  const MixConfig& config() const { return config_; }
  const profile::ModelRepertoire& repertoire() const { return repertoire_; }
  const hw::Cluster& cluster() const { return cluster_; }
  SimTime sla_target() const { return sla_target_; }
  int num_models() const { return repertoire_.size(); }
  // The model-swap penalty (config swap_cost_us) in ticks.
  SimTime swap_cost() const { return swap_cost_; }
  // Model `model_id`'s batch-size distribution (its configured median and
  // sigma over [1, max_batch]).
  const workload::LogNormalBatchDist& batch_dist(int model_id) const {
    return *dists_.at(static_cast<std::size_t>(model_id));
  }

  // Symbolic model names indexed by model id (the models[] vector of a
  // captured paris-elsa-trace-v1 document).
  std::vector<std::string> ModelNames() const;

  // Mixed-PARIS planner inputs for a subset of this testbed's models, with
  // their *global* traffic shares (PlanMixedParis renormalizes within the
  // subset).  The one builder behind PlanMixed and the fleet's per-server
  // planner pass, so both always agree on shares and distributions.  The
  // inputs borrow this testbed's profiles and distributions.
  std::vector<partition::MixModelInput> PlannerInputs(
      const std::vector<int>& model_ids) const;
  // Every model's planner inputs, in model-id order: what PlanMixed plans
  // and what the online RepartitionController is seeded with.
  std::vector<partition::MixModelInput> PlannerInputs() const;

  // --- Partition plans -----------------------------------------------
  // Consolidated layout: per-model PARIS within share-derived budgets,
  // union packed on the cluster (PARIS on the whole budget for one model).
  partition::MixedPlan PlanMixed() const;
  // Homogeneous GPU(partition_gpcs) on the GPC budget.  GPU(7) gets the
  // whole cluster, as Table I's GPU(7) column does.
  partition::PartitionPlan PlanHomogeneous(int partition_gpcs) const;
  // The paper's Random baseline on the GPC budget.
  partition::PartitionPlan PlanRandom(std::uint64_t seed = 0xBADD5EED) const;

  // The declarative scenario equivalent of this testbed's mix at
  // `rate_qps` total offered load: constant rate, static weights, this
  // config's batch distributions.  Presets and key=val overrides
  // (workload::ApplyScenario) reshape it; drained unmodified it draws in
  // the canonical mixed order (workload/scenario.h).
  workload::ScenarioSpec ScenarioFor(double rate_qps) const;

  // Interleaved multi-model trace at `rate_qps` total offered load
  // (drains ScenarioFor(rate_qps) on a fresh Rng(seed)).
  workload::QueryTrace GenerateMix(double rate_qps, std::size_t num_queries,
                                   std::uint64_t seed) const;

  std::unique_ptr<sched::Scheduler> MakeScheduler(
      SchedulerKind kind, sched::ElsaParams elsa = sched::ElsaParams{}) const;

  // Replays `trace` on a server with the given partition sizes.  `seed`
  // drives only the server's internal streams (noise).
  sim::SimResult Run(const std::vector<int>& partition_gpcs,
                     sched::Scheduler& scheduler,
                     const workload::QueryTrace& trace,
                     std::uint64_t seed) const;

  // Generates GenerateMix(options.rate_qps, options.num_queries,
  // options.seed) and replays it at the same seed.
  sim::SimResult Run(const std::vector<int>& partition_gpcs,
                     sched::Scheduler& scheduler,
                     const RunOptions& options) const;

 private:
  MixConfig config_;
  profile::ModelRepertoire repertoire_;
  // Indexed by model id, one heap object each: a contiguous vector of them
  // measured 2 MB (2.8%) more peak RSS on perfbench's fleet-steady, from
  // where malloc places the arenas' later blocks.
  std::vector<std::unique_ptr<workload::LogNormalBatchDist>> dists_;
  hw::Cluster cluster_;
  SimTime sla_target_;
  SimTime swap_cost_;
};

}  // namespace pe::core
