#include "core/mix_runner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/paper_config.h"
#include "partition/homogeneous.h"
#include "partition/random_partition.h"

namespace pe::core {

namespace {

// Rejects a bad config before anything is built from it, naming the field.
MixConfig Validated(MixConfig config) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("MixTestbed: " + what);
  };
  const auto finite_at_least_0 = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  if (config.models.empty()) fail("no models configured");
  if (!(std::isfinite(config.sla_n) && config.sla_n > 0.0)) {
    fail("sla_n must be finite and > 0");
  }
  if (config.num_gpus < 1) fail("num_gpus must be >= 1");
  if (config.gpc_budget < 1) fail("gpc_budget must be >= 1");
  if (!finite_at_least_0(config.swap_cost_us)) {
    fail("swap_cost_us must be finite and >= 0");
  }
  if (!CheckedTicks(config.swap_cost_us, kNsPerUs)) {
    fail("swap_cost_us overflows the tick clock (2^63 ns)");
  }
  if (!finite_at_least_0(config.latency_noise_sigma)) {
    fail("latency_noise_sigma must be finite and >= 0");
  }
  double total_share = 0.0;
  for (const auto& m : config.models) {
    if (m.share < 0.0) fail("negative share for " + m.model);
    total_share += m.share;
  }
  if (total_share <= 0.0) fail("shares sum to zero");
  return config;
}

}  // namespace

MixConfig Table1Config(const std::string& model) {
  const ModelServerConfig& row = Table1For(model);
  MixConfig config;
  config.models.push_back(MixModelConfig{.model = model});
  config.num_gpus = row.num_gpus;
  config.gpc_budget = row.gpc_budget;
  return config;
}

MixTestbed::MixTestbed(MixConfig config)
    : config_(Validated(std::move(config))),
      cluster_(config_.num_gpus, config_.gpu),
      swap_cost_(UsToTicks(config_.swap_cost_us)) {
  const perf::RooflineEngine engine(config_.gpu, config_.roofline);
  std::vector<std::string> names;
  names.reserve(config_.models.size());
  for (const auto& m : config_.models) {
    if (std::find(names.begin(), names.end(), m.model) != names.end()) {
      throw std::invalid_argument("MixTestbed: duplicate model " + m.model);
    }
    names.push_back(m.model);
  }
  repertoire_ =
      profile::BuildZooRepertoire(names, engine, config_.max_batch);

  sla_target_ = 0;
  for (std::size_t i = 0; i < config_.models.size(); ++i) {
    const auto& m = config_.models[i];
    dists_.push_back(std::make_unique<workload::LogNormalBatchDist>(
        m.dist_median, m.dist_sigma, config_.max_batch));
    // The shared SLA is the strictest rule that covers every model: the
    // max of the per-model Section V targets.
    sla_target_ = std::max(
        sla_target_, SlaTarget(repertoire_.profile(static_cast<int>(i)),
                               config_.max_batch, config_.sla_n));
  }
}

std::vector<std::string> MixTestbed::ModelNames() const {
  std::vector<std::string> names;
  names.reserve(config_.models.size());
  for (const auto& m : config_.models) names.push_back(m.model);
  return names;
}

std::vector<partition::MixModelInput> MixTestbed::PlannerInputs(
    const std::vector<int>& model_ids) const {
  std::vector<partition::MixModelInput> inputs;
  inputs.reserve(model_ids.size());
  for (int m : model_ids) {
    const auto i = static_cast<std::size_t>(m);
    partition::MixModelInput in;
    in.model_id = m;
    in.share = config_.models.at(i).share;
    in.profile = &repertoire_.profile(m);
    in.dist = dists_[i].get();
    inputs.push_back(in);
  }
  return inputs;
}

std::vector<partition::MixModelInput> MixTestbed::PlannerInputs() const {
  std::vector<int> all(config_.models.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return PlannerInputs(all);
}

partition::MixedPlan MixTestbed::PlanMixed() const {
  return partition::PlanMixedParis(PlannerInputs(), cluster_,
                                   config_.gpc_budget, config_.paris);
}

partition::PartitionPlan MixTestbed::PlanHomogeneous(int partition_gpcs) const {
  const int budget =
      partition_gpcs == 7 ? cluster_.total_gpcs() : config_.gpc_budget;
  partition::HomogeneousPartitioner p(partition_gpcs);
  return p.Plan(cluster_, budget);
}

partition::PartitionPlan MixTestbed::PlanRandom(std::uint64_t seed) const {
  partition::RandomPartitioner p(seed);
  return p.Plan(cluster_, config_.gpc_budget);
}

workload::ScenarioSpec MixTestbed::ScenarioFor(double rate_qps) const {
  workload::ScenarioSpec spec;
  spec.rate.base_qps = rate_qps;
  spec.max_batch = config_.max_batch;
  for (std::size_t i = 0; i < config_.models.size(); ++i) {
    const auto& m = config_.models[i];
    workload::ComponentSpec c;
    c.model_id = static_cast<int>(i);
    c.model_name = m.model;
    c.weight = m.share;
    c.median = m.dist_median;
    c.sigma = m.dist_sigma;
    spec.components.push_back(std::move(c));
  }
  return spec;
}

workload::QueryTrace MixTestbed::GenerateMix(double rate_qps,
                                             std::size_t num_queries,
                                             std::uint64_t seed) const {
  return workload::GenerateScenarioTrace(ScenarioFor(rate_qps), num_queries,
                                         seed);
}

std::unique_ptr<sched::Scheduler> MixTestbed::MakeScheduler(
    SchedulerKind kind, sched::ElsaParams elsa) const {
  return core::MakeScheduler(kind, repertoire_, sla_target_, elsa,
                             config_.swap_cost_us * 1e-6);
}

sim::SimResult MixTestbed::Run(const std::vector<int>& partition_gpcs,
                               sched::Scheduler& scheduler,
                               const workload::QueryTrace& trace,
                               std::uint64_t seed) const {
  if (partition_gpcs.empty()) {
    throw std::invalid_argument("MixTestbed::Run: empty partition layout");
  }
  sim::ServerConfig sc;
  sc.partition_gpcs = partition_gpcs;
  sc.sla_target = sla_target_;
  sc.latency_noise_sigma = config_.latency_noise_sigma;
  sc.seed = seed ^ 0xA5A5A5A5ULL;
  sc.frontend = config_.frontend;
  sc.model_swap_cost = swap_cost_;
  sim::InferenceServer server(sc, repertoire_, scheduler);
  return server.Run(trace);
}

sim::SimResult MixTestbed::Run(const std::vector<int>& partition_gpcs,
                               sched::Scheduler& scheduler,
                               const RunOptions& options) const {
  const workload::QueryTrace trace =
      GenerateMix(options.rate_qps, options.num_queries, options.seed);
  return Run(partition_gpcs, scheduler, trace, options.seed);
}

}  // namespace pe::core
