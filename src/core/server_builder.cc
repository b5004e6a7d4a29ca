#include "core/server_builder.h"

#include <stdexcept>

#include "partition/homogeneous.h"
#include "partition/random_partition.h"
#include "perf/model_zoo.h"
#include "sched/baselines.h"
#include "sched/fifs.h"
#include "workload/arrival.h"

namespace pe::core {

const char* ToString(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifs: return "FIFS";
    case SchedulerKind::kElsa: return "ELSA";
    case SchedulerKind::kJsq: return "JSQ";
    case SchedulerKind::kGreedyFastest: return "GreedyFastest";
  }
  return "?";
}

std::unique_ptr<sched::Scheduler> MakeScheduler(
    SchedulerKind kind, const profile::ModelRepertoire& repertoire,
    SimTime sla_target, sched::ElsaParams elsa, double swap_cost_sec) {
  switch (kind) {
    case SchedulerKind::kFifs:
      return std::make_unique<sched::FifsScheduler>();
    case SchedulerKind::kElsa:
      if (elsa.swap_cost_sec == 0.0) elsa.swap_cost_sec = swap_cost_sec;
      return std::make_unique<sched::ElsaScheduler>(repertoire, sla_target,
                                                    elsa);
    case SchedulerKind::kJsq:
      return std::make_unique<sched::JsqScheduler>();
    case SchedulerKind::kGreedyFastest:
      return std::make_unique<sched::GreedyFastestScheduler>(repertoire);
  }
  throw std::invalid_argument("MakeScheduler: unknown kind");
}

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)),
      model_(perf::BuildModelByName(config_.model_name)),
      engine_(config_.gpu, config_.roofline),
      repertoire_(profile::BuildZooRepertoire({config_.model_name}, engine_,
                                              config_.max_batch)),
      dist_(std::make_unique<workload::LogNormalBatchDist>(
          config_.dist_median, config_.dist_sigma, config_.max_batch)),
      table1_(Table1For(config_.model_name)),
      cluster_(table1_.num_gpus, config_.gpu),
      sla_target_(SlaTarget(profile(), config_.max_batch, config_.sla_n)) {}

int Testbed::BudgetFor(int homogeneous_size) const {
  return homogeneous_size == 7 ? table1_.gpc_budget_gpu7 : table1_.gpc_budget;
}

partition::PartitionPlan Testbed::PlanHomogeneous(int partition_gpcs) const {
  partition::HomogeneousPartitioner p(partition_gpcs);
  return p.Plan(cluster_, BudgetFor(partition_gpcs));
}

partition::PartitionPlan Testbed::PlanRandom(std::uint64_t seed) const {
  partition::RandomPartitioner p(seed);
  return p.Plan(cluster_, table1_.gpc_budget);
}

partition::PartitionPlan Testbed::PlanParis() const {
  partition::ParisPartitioner p(profile(), *dist_, config_.paris);
  return p.Plan(cluster_, table1_.gpc_budget);
}

std::unique_ptr<sched::Scheduler> Testbed::MakeScheduler(
    SchedulerKind kind, sched::ElsaParams elsa) const {
  return core::MakeScheduler(kind, repertoire_, sla_target_, elsa);
}

workload::ScenarioSpec Testbed::ScenarioFor(double rate_qps) const {
  workload::ScenarioSpec spec;
  spec.rate.base_qps = rate_qps;
  spec.max_batch = config_.max_batch;
  workload::ComponentSpec c;
  c.model_id = 0;
  c.model_name = config_.model_name;
  c.median = config_.dist_median;
  c.sigma = config_.dist_sigma;
  spec.components.push_back(std::move(c));
  return spec;
}

sim::SimResult Testbed::RunTrace(const partition::PartitionPlan& plan,
                                 sched::Scheduler& scheduler,
                                 const workload::QueryTrace& trace,
                                 std::uint64_t seed) const {
  if (plan.instance_gpcs.empty()) {
    throw std::invalid_argument("Testbed::RunTrace: empty partition plan");
  }
  sim::ServerConfig sc;
  sc.partition_gpcs = plan.instance_gpcs;
  sc.sla_target = sla_target_;
  sc.latency_noise_sigma = config_.latency_noise_sigma;
  sc.seed = seed ^ 0xA5A5A5A5ULL;
  sc.frontend = config_.frontend;

  sim::InferenceServer server(sc, repertoire_, scheduler);
  return server.Run(trace);
}

sim::SimResult Testbed::Run(const partition::PartitionPlan& plan,
                            sched::Scheduler& scheduler,
                            const RunOptions& options) const {
  const workload::QueryTrace trace = workload::GenerateScenarioTrace(
      ScenarioFor(options.rate_qps), options.num_queries, options.seed);
  return RunTrace(plan, scheduler, trace, options.seed);
}

sim::ServerStats Testbed::RunStats(const partition::PartitionPlan& plan,
                                   SchedulerKind kind,
                                   const RunOptions& options) const {
  auto scheduler = MakeScheduler(kind);
  return Run(plan, *scheduler, options).Stats(sla_target_);
}

}  // namespace pe::core
