// Engine-throughput trajectory bench: simulated queries per wall-clock
// second the discrete-event engine sustains, at W in {8, 64, 256, 1024}
// partitions x {single-model, 4-model mix} x {FIFS, ELSA}.  The W = 1024
// cells record how per-arrival cost scales with the partition count; they
// are reported, not gated.
//
// Self-contained timing (std::chrono, no google-benchmark dependency).
// Every number is absolute: `engine_qps` is the engine's
// simulated-queries-per-second per configuration, tracked against
// recorded history rather than against an in-tree baseline.  Behaviour is
// pinned separately by the golden digests in tests/.
//
// Headline: `engine_qps_256_mix4_elsa`, the 256-partition mixed-trace
// ELSA configuration.  Run in Release without PE_BENCH_SMOKE for
// meaningful numbers.
//
// A fleet-scaling leg follows the single-server grid: the same 4-model
// mix served by a sharded router-fronted fleet (core::FleetTestbed, 100
// servers / 1M queries in full mode), with every pipeline stage timed
// through one MeasureStage helper:
//   router_qps  RouteAll per policy (hash / least / po2c), thread-chunked
//               for the stateless hash policy,
//   split_qps   the two-pass index-only SplitTrace (po2c),
//   sim_qps     simulating the split at jobs=1,
//   stats_sec   the FleetResult::Stats merge of per-server partials,
//   fleet_qps   the end-to-end pipeline (route + split + simulate +
//               stats) at --jobs 1 and hardware concurrency; the two runs
//               must produce identical records (`fleet_identical_jobs1`).
// Chaos and degraded-capacity legs follow (see below); `chaos_sec` is the
// wall time of the faulted driver on the serverloss schedule.
// PE_BENCH_SMOKE=1 shrinks every leg to a seconds-long smoke run;
// PE_BENCH_JSON_DIR=<dir> writes <dir>/engine_throughput.json.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "core/fleet_runner.h"
#include "core/result_io.h"
#include "profile/model_repertoire.h"
#include "sched/elsa.h"
#include "sched/fifs.h"
#include "sim/server.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace {

using namespace pe;  // NOLINT: bench-local convenience

// PE_BENCH_SMOKE set to anything but empty/0/false/off/no, in any case.
bool SmokeMode() {
  const char* v = std::getenv("PE_BENCH_SMOKE");
  std::string s = v == nullptr ? "" : v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return !(s.empty() || s == "0" || s == "false" || s == "off" || s == "no");
}

std::size_t Queries(std::size_t n) { return SmokeMode() ? 500 : n; }

const std::vector<std::string>& MixModels() {
  static const std::vector<std::string> kModels = {"resnet", "mobilenet",
                                                   "bert", "shufflenet"};
  return kModels;
}

// Heterogeneous layout of W partitions cycling the profiled MIG sizes.
std::vector<int> MakeLayout(int workers) {
  const int cycle[] = {1, 2, 3, 7};
  std::vector<int> layout;
  layout.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) layout.push_back(cycle[i % 4]);
  return layout;
}

// Offered load tuned to keep the server busy without unbounded queues:
// a fraction of the layout's aggregate service rate at the median batch.
double RateFor(const profile::ModelRepertoire& rep,
               const std::vector<int>& layout) {
  double capacity = 0.0;
  for (int gpcs : layout) {
    double per_model = 0.0;
    for (int m = 0; m < rep.size(); ++m) {
      per_model += rep.profile(m).ThroughputQps(gpcs, 8);
    }
    capacity += per_model / rep.size();
  }
  return 0.75 * capacity;
}

// Constant-rate scenario specs draw in the canonical single-model and
// mixed orders (workload/scenario.h), so the trajectory numbers stay
// comparable across bench revisions.
workload::QueryTrace MakeTrace(bool mixed, double rate_qps, std::size_t n,
                               std::uint64_t seed) {
  workload::ScenarioSpec spec;
  spec.rate.base_qps = rate_qps;
  spec.max_batch = 32;
  const double medians[] = {6.0, 4.0, 9.0, 12.0};
  const double sigmas[] = {0.9, 0.8, 0.7, 0.9};
  const int components = mixed ? 4 : 1;
  for (int m = 0; m < components; ++m) {
    workload::ComponentSpec c;
    c.model_id = m;
    c.weight = 1.0;
    c.median = medians[m];
    c.sigma = sigmas[m];
    spec.components.push_back(c);
  }
  return workload::GenerateScenarioTrace(spec, n, seed);
}

// FNV-1a over the fields that define a record stream; equal hashes back
// the jobs-1 and empty-fault-plan identity checks below.
std::uint64_t HashRecords(const std::vector<sim::QueryRecord>& records) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& r : records) {
    mix(r.id);
    mix(static_cast<std::uint64_t>(r.batch));
    mix(static_cast<std::uint64_t>(r.model));
    mix(static_cast<std::uint64_t>(r.started));
    mix(static_cast<std::uint64_t>(r.finished));
    mix(static_cast<std::uint64_t>(r.worker));
    mix(static_cast<std::uint64_t>(r.model_swap ? 1 : 0));
  }
  return h;
}

// Best-of-`reps` wall-clock seconds of fn().
template <typename Fn>
double TimeSec(Fn&& fn, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// One fleet pipeline stage: best-of-reps wall clock and one table row.
// Every stage (route, split, sim, stats) funnels through here so a new
// stage is one call.
template <typename Fn>
double MeasureStage(Table& table, const std::string& stage,
                    const std::string& variant, double n, int reps,
                    Fn&& fn) {
  const double sec = TimeSec(fn, reps);
  const double qps = sec > 0.0 ? n / sec : 0.0;
  table.AddRow({stage, variant, Table::Num(qps, 0), Table::Num(sec, 4)});
  return sec;
}

}  // namespace

int main() {
  std::cout << "==================================================\n"
               "Engine throughput (simulated queries / wall-clock second)\n"
               "absolute numbers; behaviour pinned by the golden digests in "
               "tests/\n==================================================\n\n";
  if (SmokeMode()) {
    std::cerr << "note: PE_BENCH_SMOKE is set -- reduced work; numbers are "
                 "NOT meaningful\n";
  }

  const auto repertoire = profile::BuildZooRepertoire(MixModels());
  // Strictest per-model SLA rule across the mix (Section V shape).
  SimTime sla = 0;
  for (int m = 0; m < repertoire.size(); ++m) {
    const double sec = repertoire.profile(m).LatencySec(7, 32);
    sla = std::max(sla, SecToTicks(1.5 * sec));
  }

  const std::size_t num_queries = Queries(60000);
  const int reps = SmokeMode() ? 1 : 2;

  Table table({"workers", "workload", "sched", "queries", "engine_qps"});
  core::Json configs = core::Json::Array();
  double headline_qps = 0.0;

  for (const int workers : {8, 64, 256, 1024}) {
    const auto layout = MakeLayout(workers);
    const double rate = RateFor(repertoire, layout);
    for (const bool mixed : {false, true}) {
      const auto trace =
          MakeTrace(mixed, rate, num_queries,
                    0x5EED0 + static_cast<std::uint64_t>(workers));
      for (const bool use_elsa : {false, true}) {
        sim::ServerConfig sc;
        sc.partition_gpcs = layout;
        sc.sla_target = sla;
        sc.seed = 0xBE7C4;
        std::unique_ptr<sched::Scheduler> scheduler;
        if (use_elsa) {
          scheduler =
              std::make_unique<sched::ElsaScheduler>(repertoire, sla);
        } else {
          scheduler = std::make_unique<sched::FifsScheduler>();
        }
        sim::InferenceServer server(sc, repertoire, *scheduler);
        // Best-of-reps wall clock of a full Run (Reset + inject + drain).
        const double sec = TimeSec([&] { (void)server.Run(trace); }, reps);
        const double qps =
            sec > 0.0 ? static_cast<double>(trace.size()) / sec : 0.0;
        const std::string workload = mixed ? "mix4" : "single";
        const std::string sched_name = use_elsa ? "ELSA" : "FIFS";
        table.AddRow({std::to_string(workers), workload, sched_name,
                      std::to_string(trace.size()), Table::Num(qps, 0)});
        core::Json entry = core::Json::Object();
        entry.Set("workers", workers);
        entry.Set("workload", workload);
        entry.Set("scheduler", sched_name);
        entry.Set("queries", static_cast<std::uint64_t>(trace.size()));
        entry.Set("engine_qps", qps);
        configs.Add(std::move(entry));
        if (workers == 256 && mixed && use_elsa) headline_qps = qps;
      }
    }
  }

  table.Print(std::cout);
  std::cout << "\nheadline (256 partitions, 4-model mix, ELSA): "
            << Table::Num(headline_qps, 0) << " simulated queries/sec\n";

  // ------------------------------------------------------------------
  // Fleet-scaling leg: the same 4-model mix behind a sharded router
  // tier, each pipeline stage timed on its own.
  const int fleet_servers = SmokeMode() ? 4 : 100;
  const std::size_t fleet_queries = Queries(1'000'000);
  core::FleetTestbedConfig fleet_config;
  for (const auto& name : MixModels()) {
    core::MixModelConfig m;
    m.model = name;
    m.share = 1.0 / static_cast<double>(MixModels().size());
    fleet_config.mix.models.push_back(m);
  }
  fleet_config.num_servers = fleet_servers;
  fleet_config.placement = fleet::PlacementKind::kSharded;
  fleet_config.replicas = SmokeMode() ? 2 : 8;
  fleet_config.policy = fleet::RouterPolicy::kPowerOfTwo;
  const core::FleetTestbed fleet(fleet_config);
  const auto& zoo = fleet.mix().repertoire();
  const auto fleet_trace = fleet.GenerateFleetTrace(
      300.0 * fleet_servers, fleet_queries, /*seed=*/0x5EEDF);
  const int fleet_jobs = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));
  const double fleet_n = static_cast<double>(fleet_trace.size());

  // Stage 1: routing, per policy (thread-chunked for the stateless hash
  // policy).
  Table fleet_table({"stage", "variant", "qps", "sec"});
  core::Json router_qps = core::Json::Object();
  // Routing alone is milliseconds per rep; take more reps than the
  // simulator-driving stages so best-of isn't noise-bound.
  const int route_reps = SmokeMode() ? 1 : 5;
  for (const auto policy :
       {fleet::RouterPolicy::kHash, fleet::RouterPolicy::kLeastLoaded,
        fleet::RouterPolicy::kPowerOfTwo}) {
    auto router =
        fleet::MakeRouter(policy, fleet.placement(), &zoo, /*seed=*/0x70C5);
    const double sec = MeasureStage(
        fleet_table, "route", ToString(policy), fleet_n, route_reps, [&] {
          router->Reset();
          (void)router->RouteAll(fleet_trace, fleet_jobs);
        });
    router_qps.Set(ToString(policy), sec > 0.0 ? fleet_n / sec : 0.0);
  }

  // Stage 2: the two-pass count-then-fill split into the flat id list
  // (po2c, the planted fleet policy).
  auto split_router = fleet.cluster().MakeFleetRouter();
  fleet::TraceSplit split;
  const double split_sec =
      MeasureStage(fleet_table, "split", "po2c", fleet_n, reps, [&] {
        split_router->Reset();
        split = fleet::SplitTrace(fleet_trace, *split_router,
                                  fleet.placement(), fleet_jobs);
      });

  // Per-server record-stream hash: equal hashes back the jobs-1 and
  // empty-fault-plan identity checks.
  const auto hash_fleet = [](const fleet::FleetResult& r) {
    std::uint64_t h = 1469598103934665603ull;
    for (const auto& server : r.per_server) {
      h = (h ^ HashRecords(server.records)) * 1099511628211ull;
    }
    return h;
  };

  // Stage 3: simulate the split at jobs=1, so the number reflects
  // per-event work, not thread fan-out.
  fleet::FleetResult sim_result;
  const double sim_sec =
      MeasureStage(fleet_table, "sim", "jobs=1", fleet_n, reps, [&] {
        sim_result = fleet.cluster().SimulateSplit(split, 1);
      });

  // Stage 4: the stats merge over the simulate result.
  fleet::FleetStats fleet_stats;
  const double stats_sec =
      MeasureStage(fleet_table, "stats", "-", fleet_n, reps, [&] {
        fleet_stats = sim_result.Stats(fleet.sla_target(),
                                       /*warmup_fraction=*/0.1, fleet_jobs);
      });

  // End to end: route + split + simulate + stats at --jobs 1 and hardware
  // concurrency.  The jobs-1 rerun pins the fleet driver's bit-identity
  // claim.
  std::uint64_t fleet_hash_jobs1 = 0;
  std::uint64_t fleet_hash_jobsn = 0;
  const auto pipeline = [&](int jobs, std::uint64_t* hash_out) {
    auto router = fleet.cluster().MakeFleetRouter();
    const auto s = fleet::SplitTrace(fleet_trace, *router, fleet.placement(),
                                     jobs);
    const auto result = fleet.cluster().SimulateSplit(s, jobs);
    *hash_out = hash_fleet(result);
    (void)result.Stats(fleet.sla_target(), /*warmup_fraction=*/0.1, jobs);
  };
  const double sec_jobs1 =
      TimeSec([&] { pipeline(1, &fleet_hash_jobs1); }, reps);
  const double sec_jobsn =
      TimeSec([&] { pipeline(fleet_jobs, &fleet_hash_jobsn); }, reps);
  const double fleet_qps = sec_jobsn > 0.0 ? fleet_n / sec_jobsn : 0.0;
  const double fleet_qps_jobs1 = sec_jobs1 > 0.0 ? fleet_n / sec_jobs1 : 0.0;
  const bool fleet_identical = fleet_hash_jobs1 == fleet_hash_jobsn;

  std::cout << "\nfleet scaling (" << fleet_servers
            << " servers, sharded, po2c, " << fleet_trace.size()
            << " queries, jobs=" << fleet_jobs << "):\n";
  fleet_table.Print(std::cout);
  std::cout << "fleet pipeline: " << Table::Num(fleet_qps, 0)
            << " queries/sec end-to-end (" << Table::Num(fleet_qps_jobs1, 0)
            << " at jobs=1), jobs-1 identical: "
            << (fleet_identical ? "yes" : "NO") << "\n";
  if (!fleet_identical) {
    std::cerr << "error: fleet records diverged between --jobs 1 and --jobs "
              << fleet_jobs << "\n";
    return 1;
  }

  // ------------------------------------------------------------------
  // Chaos leg: the same fleet under a deterministic serverloss schedule
  // (fleet/fault.h), with and without degraded-capacity repartition.
  // Gate 1: an EMPTY fault plan must reproduce the batch pipeline's
  // record hash bit for bit -- the fault driver costs nothing when
  // nothing breaks.  Gate 2: conservation -- every injected query ends
  // terminal (completed + failed + shed == injected), so a crash sheds
  // loudly instead of losing work.
  const auto empty_plan_run =
      fleet.RunWithFaults(fleet_trace, fleet::FaultPlan{}, fleet_jobs);
  const bool chaos_identity_ok =
      hash_fleet(empty_plan_run) == fleet_hash_jobsn;

  // Crash ~10% of the fleet permanently, with an end-to-end deadline so
  // overload behind the outage sheds instead of queueing forever.
  const std::string chaos_spec =
      "serverloss:count=" + std::to_string(std::max(1, fleet_servers / 10)) +
      ",deadline-ms=250";
  const auto chaos_plan =
      fleet.ResolveFaults(fleet::ParseFaultRef(chaos_spec), fleet_trace);
  auto chaos_routing_only = chaos_plan;
  chaos_routing_only.repartition = false;
  // The faulted driver's wall time (best of reps), reported, not gated.
  fleet::FleetResult chaos_run;
  const double chaos_sec = TimeSec(
      [&] {
        chaos_run = fleet.RunWithFaults(fleet_trace, chaos_plan, fleet_jobs);
      },
      reps);
  const auto chaos_no_repart =
      fleet.RunWithFaults(fleet_trace, chaos_routing_only, fleet_jobs);
  const auto& chaos = chaos_run.fault;
  const bool chaos_conserved =
      chaos.completed + chaos.failed + chaos.shed == chaos.injected &&
      chaos.injected == fleet_trace.size();
  double chaos_min_availability = 1.0;
  for (const double a : chaos.availability) {
    chaos_min_availability = std::min(chaos_min_availability, a);
  }
  // Incident-window p99 vs the fault-free fleet p99: what the outage
  // costs the survivors' tail while it is in progress.
  const double chaos_p99_degradation =
      fleet_stats.aggregate.p99_latency_ms > 0.0
          ? chaos.p99_incident_ms / fleet_stats.aggregate.p99_latency_ms
          : 0.0;

  std::cout << "chaos (" << chaos_spec << "): "
            << chaos.completed << "/" << chaos.injected << " completed, "
            << chaos.shed << " shed ("
            << chaos_no_repart.fault.shed << " without repartition), "
            << chaos.failed << " failed, min availability "
            << Table::Num(chaos_min_availability, 3)
            << ", chaos_p99_degradation "
            << Table::Num(chaos_p99_degradation, 2)
            << "x, fault-free leg identical: "
            << (chaos_identity_ok ? "yes" : "NO") << ", "
            << Table::Num(chaos_sec, 4) << " s\n";
  if (!chaos_identity_ok) {
    std::cerr << "error: empty fault plan diverged from the batch pipeline\n";
    return 1;
  }
  if (!chaos_conserved) {
    std::cerr << "error: chaos leg lost queries (completed " << chaos.completed
              << " + failed " << chaos.failed << " + shed " << chaos.shed
              << " != injected " << chaos.injected << ")\n";
    return 1;
  }
  if (chaos_min_availability >= 1.0) {
    std::cerr << "error: chaos leg crashed nothing (min availability 1.0)\n";
    return 1;
  }

  // Degraded-capacity comparison: the repartition controller replans a
  // survivor's lane mix from its renormalized model shares, so it can
  // only express itself where servers co-host models.  Densify the
  // placement (two models per server), crash 3/4 of the fleet with a
  // tight deadline so the survivors genuinely overload, and run the
  // identical schedule with and without repartition; failover routing
  // alone must shed measurably more than routing + repartition.
  core::FleetTestbedConfig dense_config = fleet_config;
  dense_config.replicas = std::max(2, fleet_servers / 2);
  const core::FleetTestbed dense(dense_config);
  const auto dense_trace = dense.GenerateFleetTrace(
      300.0 * fleet_servers, fleet_queries, /*seed=*/0x5EEDF);
  const std::string degraded_spec =
      "serverloss:count=" + std::to_string(std::max(1, 3 * fleet_servers / 4)) +
      ",deadline-ms=100";
  const auto degraded_plan =
      dense.ResolveFaults(fleet::ParseFaultRef(degraded_spec), dense_trace);
  auto degraded_routing_only = degraded_plan;
  degraded_routing_only.repartition = false;
  const auto degraded_run =
      dense.RunWithFaults(dense_trace, degraded_plan, fleet_jobs);
  const auto degraded_norep =
      dense.RunWithFaults(dense_trace, degraded_routing_only, fleet_jobs);
  const auto& degraded = degraded_run.fault;
  const std::uint64_t degraded_shed_routing_only = degraded_norep.fault.shed;
  const bool degraded_conserved =
      degraded.completed + degraded.failed + degraded.shed ==
          degraded.injected &&
      degraded_norep.fault.completed + degraded_norep.fault.failed +
              degraded_norep.fault.shed ==
          degraded_norep.fault.injected;

  std::cout << "degraded capacity (" << degraded_spec << ", replicas="
            << dense_config.replicas << "): repartition shed " << degraded.shed
            << " vs routing-only " << degraded_shed_routing_only << " ("
            << degraded.repartitions << " repartitions)\n";
  if (!degraded_conserved) {
    std::cerr << "error: degraded-capacity leg lost queries\n";
    return 1;
  }
  // Smoke's 4-server fleet is too small for a stable margin; the full
  // 100-server run must show repartition strictly ahead.
  if (SmokeMode() ? degraded.shed > degraded_shed_routing_only
                  : degraded.shed >= degraded_shed_routing_only) {
    std::cerr << "error: failover repartition did not lower shed ("
              << degraded.shed << " vs " << degraded_shed_routing_only
              << " routing-only)\n";
    return 1;
  }

  core::Json data = core::Json::Object();
  data.Set("configs", std::move(configs));
  data.Set("engine_qps_256_mix4_elsa", headline_qps);
  data.Set("fleet_servers", fleet_servers);
  data.Set("fleet_queries", static_cast<std::uint64_t>(fleet_trace.size()));
  data.Set("fleet_jobs", fleet_jobs);
  data.Set("router_qps", std::move(router_qps));
  data.Set("split_qps", split_sec > 0.0 ? fleet_n / split_sec : 0.0);
  data.Set("sim_qps", sim_sec > 0.0 ? fleet_n / sim_sec : 0.0);
  data.Set("stats_sec", stats_sec);
  data.Set("fleet_qps", fleet_qps);
  data.Set("fleet_qps_jobs1", fleet_qps_jobs1);
  data.Set("fleet_identical_jobs1", fleet_identical);
  data.Set("chaos_spec", chaos_spec);
  data.Set("chaos_identity_ok", chaos_identity_ok);
  data.Set("chaos_sec", chaos_sec);
  data.Set("chaos_injected", chaos.injected);
  data.Set("chaos_completed", chaos.completed);
  data.Set("chaos_failed", chaos.failed);
  data.Set("chaos_shed", chaos.shed);
  data.Set("chaos_shed_no_repartition", chaos_no_repart.fault.shed);
  data.Set("chaos_retried", chaos.retried);
  data.Set("chaos_rerouted", chaos.rerouted);
  data.Set("chaos_repartitions", chaos.repartitions);
  data.Set("chaos_min_availability", chaos_min_availability);
  data.Set("chaos_p99_incident_ms", chaos.p99_incident_ms);
  data.Set("chaos_p99_degradation", chaos_p99_degradation);
  data.Set("degraded_spec", degraded_spec);
  data.Set("degraded_replicas", dense_config.replicas);
  data.Set("degraded_injected", degraded.injected);
  data.Set("degraded_completed", degraded.completed);
  data.Set("degraded_shed_repartition", degraded.shed);
  data.Set("degraded_shed_routing_only", degraded_shed_routing_only);
  data.Set("degraded_repartitions", degraded.repartitions);
  // CI gates the fleet, chaos and degraded fields: rename them only with
  // the workflow.
  if (const char* dir = std::getenv("PE_BENCH_JSON_DIR"); dir && *dir) {
    auto report =
        core::MakeBenchReport("engine_throughput", SmokeMode(), fleet_jobs);
    report.Set("data", std::move(data));
    const std::string path = std::string(dir) + "/engine_throughput.json";
    try {
      core::WriteJsonFile(path, report);
      std::cerr << "json: " << path << "\n";
    } catch (const std::exception& e) {
      // A broken sink must not turn a finished run into a crash.
      std::cerr << "warning: JSON report not written: " << e.what() << "\n";
    }
  }
  return 0;
}
