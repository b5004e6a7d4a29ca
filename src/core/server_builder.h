// Testbed: the top-level public API tying the whole system together.
//
// A Testbed owns, for one DNN model:
//   * the layer-accurate model and the roofline engine (ground truth),
//   * the one-time profile table (what PARIS and ELSA are allowed to see),
//   * the batch-size distribution,
//   * the physical cluster and Table-I GPC budgets,
//   * the SLA target (Section V's rule).
//
// From it, callers derive partition plans (homogeneous / random / PARIS),
// schedulers (FIFS / ELSA / baselines), and run trace-driven simulations.
//
// Typical use (see examples/quickstart.cc):
//   core::Testbed tb(core::TestbedConfig{.model_name = "resnet"});
//   auto plan = tb.PlanParis();
//   auto elsa = tb.MakeScheduler(core::SchedulerKind::kElsa);
//   auto stats = tb.Run(plan, *elsa, /*rate_qps=*/500, /*num_queries=*/10000)
//                    .Stats(tb.sla_target());
#pragma once

#include <memory>
#include <string>

#include "core/paper_config.h"
#include "hw/cluster.h"
#include "partition/paris.h"
#include "partition/partitioner.h"
#include "perf/model.h"
#include "perf/roofline.h"
#include "profile/model_repertoire.h"
#include "profile/profile_table.h"
#include "sched/elsa.h"
#include "sched/scheduler.h"
#include "sim/server.h"
#include "workload/batch_dist.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace pe::core {

enum class SchedulerKind { kFifs, kElsa, kJsq, kGreedyFastest };

const char* ToString(SchedulerKind kind);

// The one scheduler factory: a `kind` scheduler over `repertoire` (ELSA
// and GreedyFastest read each query's own model profile from it, and
// borrow it, so it must outlive the scheduler).  `sla_target` is ELSA's
// SLA.  Unless the caller tuned `elsa.swap_cost_sec`, ELSA's slack
// predictor charges `swap_cost_sec` -- the simulator's model-swap
// penalty -- so it stays honest about swaps; 0 leaves it swap-oblivious.
std::unique_ptr<sched::Scheduler> MakeScheduler(
    SchedulerKind kind, const profile::ModelRepertoire& repertoire,
    SimTime sla_target, sched::ElsaParams elsa, double swap_cost_sec = 0.0);

struct TestbedConfig {
  std::string model_name = "resnet";
  // Batch-size distribution (paper defaults: log-normal, sigma 0.9, max 32).
  double dist_median = 6.0;
  double dist_sigma = 0.9;
  int max_batch = 32;
  // SLA target multiplier N (Section V; default 1.5).
  double sla_n = 1.5;
  // Substrate knobs.
  perf::RooflineParams roofline;
  hw::GpuSpec gpu;
  partition::ParisConfig paris;
  // Optional execution-time noise (log-space sigma) and frontend stage.
  double latency_noise_sigma = 0.0;
  sim::FrontendConfig frontend;
};

struct RunOptions {
  double rate_qps = 100.0;
  std::size_t num_queries = 10000;
  std::uint64_t seed = 1;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  const TestbedConfig& config() const { return config_; }
  const perf::DnnModel& model() const { return model_; }
  const perf::RooflineEngine& engine() const { return engine_; }
  // This testbed's model registered as id 0 of a one-entry repertoire (the
  // degenerate single-model case of the multi-model serving path).
  const profile::ModelRepertoire& repertoire() const { return repertoire_; }
  const profile::ProfileTable& profile() const {
    return repertoire_.profile(0);
  }
  const workload::BatchDistribution& dist() const { return *dist_; }
  const ModelServerConfig& table1() const { return table1_; }
  const hw::Cluster& cluster() const { return cluster_; }
  SimTime sla_target() const { return sla_target_; }

  // GPC budget for a design: GPU(7) homogeneous servers get Table I's
  // (larger) GPU(7) budget; everything else gets the standard budget.
  int BudgetFor(int homogeneous_size) const;

  // --- Partition plans -----------------------------------------------
  partition::PartitionPlan PlanHomogeneous(int partition_gpcs) const;
  partition::PartitionPlan PlanRandom(std::uint64_t seed = 0xBADD5EED) const;
  partition::PartitionPlan PlanParis() const;

  // --- Schedulers ----------------------------------------------------
  // core::MakeScheduler over this testbed's repertoire and SLA.
  std::unique_ptr<sched::Scheduler> MakeScheduler(
      SchedulerKind kind, sched::ElsaParams elsa = sched::ElsaParams{}) const;

  // --- Simulation ----------------------------------------------------
  // The declarative scenario equivalent of this testbed's workload at
  // `rate_qps`: one component (this model), constant rate, this config's
  // batch distribution.  Presets and overrides (workload::ApplyScenario)
  // reshape it; drained unmodified it is bit-identical to
  // ArrivalTraceSource on the same spec and seed.
  workload::ScenarioSpec ScenarioFor(double rate_qps) const;

  // Replays an explicit trace (generated, captured, or loaded) on a server
  // built from `plan` + `scheduler`.  `seed` drives only the server's
  // internal streams (noise), derived exactly as Run derives them.
  sim::SimResult RunTrace(const partition::PartitionPlan& plan,
                          sched::Scheduler& scheduler,
                          const workload::QueryTrace& trace,
                          std::uint64_t seed) const;

  // Generates a Poisson/log-normal trace (ScenarioFor(rate_qps) drained on
  // Rng(seed)) and replays it via RunTrace.
  sim::SimResult Run(const partition::PartitionPlan& plan,
                     sched::Scheduler& scheduler,
                     const RunOptions& options) const;

  // Convenience: Run + Stats at this testbed's SLA target.
  sim::ServerStats RunStats(const partition::PartitionPlan& plan,
                            SchedulerKind kind,
                            const RunOptions& options) const;

 private:
  TestbedConfig config_;
  perf::DnnModel model_;
  perf::RooflineEngine engine_;
  profile::ModelRepertoire repertoire_;
  std::unique_ptr<workload::BatchDistribution> dist_;
  ModelServerConfig table1_;
  hw::Cluster cluster_;
  SimTime sla_target_;
};

}  // namespace pe::core
