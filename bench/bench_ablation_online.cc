// Ablation (extension): online elastic re-partitioning under workload
// drift.  A ResNet server faces a day-cycle style drift -- a small-batch
// phase, a large-batch phase, and back.  Three policies are compared:
//
//   * static-initial: PARIS planned once on the first phase's PDF
//     (what a statically provisioned paper deployment would run all day),
//   * static-oracle:  PARIS planned on the full-day mixture PDF,
//   * elastic:        TrafficEstimator + RepartitionController re-running
//                     PARIS at epoch boundaries.
//
// All three run as ONE continuous InferenceServer simulation; for the
// elastic policy each re-partitioning is a live reconfiguration event
// (drain in-flight work, carry queues over, hold dispatch for the
// downtime window), so the queue-build-up transient -- surfaced as the
// "stalled" column -- is measured rather than approximated away.
//
// Expectation: static-initial degrades badly in the drifted phase; elastic
// tracks each phase at the cost of a few reconfigurations (whose stall
// transient is now visible) and approaches or beats the mixture oracle.
#include "bench/bench_util.h"

#include "online/elastic_server.h"
#include "profile/model_repertoire.h"
#include "sched/elsa.h"
#include "workload/scenario.h"

int main() {
  using namespace pe;
  bench::PrintHeader("Ablation: online elastic re-partitioning (extension)",
                     "ResNet, drifting log-normal workload; ELSA scheduling "
                     "throughout; reconfigurations simulated live");

  const auto repertoire = profile::BuildZooRepertoire({"resnet"});
  const auto& profile = repertoire.profile(0);
  const SimTime sla = SecToTicks(1.5 * profile.LatencySec(7, 32));

  // Day cycle: small -> large -> small, 6000 queries per phase at 350 qps.
  const std::uint64_t trace_seed = 11;
  const std::uint64_t server_seed = online::kDefaultElasticSeed;
  const workload::LogNormalBatchDist small(3.0, 0.6, 32);
  const workload::LogNormalBatchDist large(18.0, 0.4, 32);
  const std::size_t phase = bench::SmokeMode() ? 1500 : 6000;
  const std::size_t queries_per_epoch = phase / 4;
  // The batch distribution drifts across the day cycle.
  const auto trace = workload::GeneratePhasedTrace(
      350.0, {{&small, phase}, {&large, phase}, {&small, phase}}, 3 * phase,
      trace_seed);

  // Mixture PDF for the oracle.
  std::vector<double> mixture(32, 0.0);
  for (int b = 1; b <= 32; ++b) {
    mixture[static_cast<std::size_t>(b - 1)] =
        (2.0 * small.Pdf(b) + large.Pdf(b)) / 3.0;
  }
  workload::EmpiricalBatchDist mixture_dist(mixture);

  auto run_policy = [&](const workload::BatchDistribution& plan_dist,
                        online::ElasticConfig config,
                        const std::string& label) {
    online::RepartitionController controller(
        repertoire, hw::Cluster(8), 48,
        {{.model_id = 0, .share = 1.0, .profile = &profile,
          .dist = &plan_dist}},
        {}, config);
    online::ElasticServerSim sim(
        controller, repertoire,
        [&] {
          return std::make_unique<sched::ElsaScheduler>(repertoire, sla);
        },
        sla, queries_per_epoch, server_seed);
    return std::pair<std::string, online::ElasticResult>(label,
                                                         sim.Run(trace));
  };

  online::ElasticConfig never;
  never.drift_threshold = 2.0;  // unreachable: never repartitions
  online::ElasticConfig adaptive;
  adaptive.drift_threshold = 0.15;
  adaptive.min_observations = std::min<std::size_t>(800, queries_per_epoch);

  std::vector<std::pair<std::string, online::ElasticResult>> results;
  results.push_back(run_policy(small, never, "static-initial"));
  results.push_back(run_policy(mixture_dist, never, "static-oracle"));
  results.push_back(run_policy(small, adaptive, "elastic"));

  Table t({"policy", "p95 ms", "viol. %", "mean ms", "stalled", "reconfigs"});
  for (const auto& [label, r] : results) {
    t.AddRow({label, Table::Num(r.total.p95_latency_ms, 2),
              Table::Num(100 * r.total.sla_violation_rate, 2),
              Table::Num(r.total.mean_latency_ms, 2),
              Table::Int(static_cast<long long>(r.total.reconfig_stalled)),
              Table::Int(r.reconfigurations)});
  }
  t.Print(std::cout);

  std::cout << "\nPer-epoch view (elastic policy):\n";
  Table e({"epoch", "layout", "p95 ms", "viol. %", "stalled", "reconfigured"});
  const auto& elastic = results.back().second;
  for (std::size_t i = 0; i < elastic.epochs.size(); ++i) {
    const auto& ep = elastic.epochs[i];
    partition::PartitionPlan tmp;
    tmp.instance_gpcs = ep.layout;
    e.AddRow({Table::Int(static_cast<long long>(i)), tmp.Summary(),
              Table::Num(ep.p95_ms, 2), Table::Num(100 * ep.violation_rate, 2),
              Table::Int(static_cast<long long>(ep.stalled)),
              ep.reconfigured ? "yes" : ""});
  }
  e.Print(std::cout);

  core::Json policies = core::Json::Array();
  for (const auto& [label, r] : results) {
    core::Json p = core::ToJson(r);
    p.Set("policy", label);
    policies.Add(std::move(p));
  }
  core::Json data = core::Json::Object();
  data.Set("model", "resnet");
  data.Set("queries_per_epoch", static_cast<std::uint64_t>(queries_per_epoch));
  data.Set("trace_seed", trace_seed);
  data.Set("server_seed", server_seed);
  data.Set("policies", std::move(policies));
  bench::WriteReport("ablation_online", std::move(data));
  return 0;
}
