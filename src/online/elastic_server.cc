#include "online/elastic_server.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "online/traffic_estimator.h"
#include "sim/metrics.h"

namespace pe::online {

ElasticServerSim::ElasticServerSim(RepartitionPolicy& controller,
                                   const profile::ModelRepertoire& repertoire,
                                   SchedulerFactory scheduler_factory,
                                   SimTime sla_target,
                                   std::size_t queries_per_epoch,
                                   std::uint64_t seed,
                                   SimTime model_swap_cost)
    : controller_(controller),
      repertoire_(repertoire),
      scheduler_factory_(std::move(scheduler_factory)),
      sla_target_(sla_target),
      queries_per_epoch_(queries_per_epoch),
      seed_(seed),
      model_swap_cost_(model_swap_cost) {
  if (queries_per_epoch_ < 1) {
    throw std::invalid_argument("ElasticServerSim: queries_per_epoch < 1");
  }
  if (model_swap_cost_ < 0) {
    throw std::invalid_argument("ElasticServerSim: model_swap_cost < 0");
  }
}

ElasticResult ElasticServerSim::Run(const workload::QueryTrace& trace) {
  ElasticResult result;
  if (trace.empty()) return result;

  // One continuous server run on the initial layout; reconfigurations are
  // injected live at epoch boundaries (no per-epoch incarnations, no
  // arrival re-basing, one RNG stream end to end).
  sim::ServerConfig sc;
  sc.partition_gpcs = controller_.current_plan().instance_gpcs;
  sc.sla_target = sla_target_;
  sc.seed = seed_;
  sc.model_swap_cost = model_swap_cost_;
  auto scheduler = scheduler_factory_();
  sim::InferenceServer server(sc, repertoire_, *scheduler);
  server.InjectTrace(trace);

  const auto& queries = trace.queries();
  const std::size_t num_epochs =
      (queries.size() + queries_per_epoch_ - 1) / queries_per_epoch_;
  std::vector<bool> reconfigured(num_epochs, false);
  std::vector<std::vector<int>> layouts(num_epochs);
  layouts[0] = controller_.current_plan().instance_gpcs;

  TrafficEstimator estimator(repertoire_.max_batch());
  for (std::size_t epoch = 1; epoch < num_epochs; ++epoch) {
    const std::size_t begin = epoch * queries_per_epoch_;
    // Simulate up to the instant the new epoch's first query arrives; the
    // controller decides before that query is dispatched.
    server.AdvanceTo(queries[begin].arrival);
    for (std::size_t i = begin - queries_per_epoch_; i < begin; ++i) {
      estimator.Observe(queries[i].model_id, queries[i].batch);
    }
    if (const auto plan = controller_.MaybeRepartition(estimator)) {
      server.BeginReconfigure(plan->instance_gpcs,
                              controller_.config().reconfig_downtime);
      reconfigured[epoch] = true;
      ++result.reconfigurations;
    }
    layouts[epoch] = controller_.current_plan().instance_gpcs;
  }

  const auto sim_result = server.Finish();

  // Per-epoch stats sliced out of the continuous record stream by query
  // id (ids are dense and epoch membership is an id range).
  for (std::size_t epoch = 0; epoch < num_epochs; ++epoch) {
    const std::size_t begin = epoch * queries_per_epoch_;
    const std::size_t end =
        std::min(begin + queries_per_epoch_, sim_result.records.size());
    const std::span<const sim::QueryRecord> slice(
        sim_result.records.data() + begin, end - begin);
    const auto stats =
        sim::ComputeStats(slice, sla_target_, /*warmup_fraction=*/0.0);
    EpochStats es;
    es.queries = slice.size();
    es.p95_ms = stats.p95_latency_ms;
    es.violation_rate = stats.sla_violation_rate;
    es.stalled = stats.reconfig_stalled;
    es.reconfigured = reconfigured[epoch];
    es.layout = layouts[epoch];
    result.epochs.push_back(std::move(es));
  }

  result.total = sim::ComputeStats(sim_result.records, sla_target_,
                                   /*warmup_fraction=*/0.0);
  return result;
}

}  // namespace pe::online
