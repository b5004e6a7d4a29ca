// paris_elsa_cli: command-line driver for the library.
//
// Subcommands:
//   profile   -- emit the one-time (partition x batch) profile table as CSV
//   plan      -- run PARIS and print the partition plan + MIG placement
//   simulate  -- replay a Poisson/log-normal workload on a chosen design
//   sweep     -- latency-bounded throughput of all paper designs
//   trace     -- generate a query trace CSV for external tools
//   elastic   -- one continuous run under workload drift with live
//                re-partitioning (reconfigurations as simulation events)
//   mix       -- multi-model serving: a consolidated mixed-PARIS layout
//                replays an interleaved multi-model trace with a
//                configurable model-swap penalty
//   fleet     -- N servers behind a pluggable router tier: the fleet trace
//                is split deterministically across per-server engines that
//                replay in parallel (bit-identical at any --jobs)
//
// Common options:
//   --model NAME        shufflenet|mobilenet|resnet|bert|conformer (resnet)
//   --median M          log-normal batch median (6)
//   --sigma S           log-normal sigma (0.9)
//   --max-batch B       distribution max batch (32)
//   --sla-n N           SLA multiplier (1.5)
// workload options (simulate/trace/elastic/mix/fleet):
//   --scenario R        named workload preset, optionally parameterized:
//                       steady|diurnal|flashcrowd|mixdrift|heavytail
//                       [:key=val,...] (e.g. flashcrowd:rate=500,mult=10);
//                       omitted = steady (the legacy constant-rate stream)
//   --capture-trace P   save the run's workload as a paris-elsa-trace-v1
//                       JSON document (see docs/TRACE_SCHEMA.md)
//   --replay-trace P    replay a captured document instead of generating;
//                       model names come from the document, so a captured
//                       fleet sub-trace replays standalone.  Exclusive
//                       with --scenario.
// simulate options:
//   --design D          paris|random|gpu1|gpu2|gpu3|gpu4|gpu7 (paris)
//   --scheduler S       elsa|fifs|jsq|greedy (elsa)
//   --rate QPS          offered load (0 = 85% of the design's capacity)
//   --queries N         trace length (20000)
//   --seed S            workload seed (1)
//   --jobs N            experiment-engine threads in [1, 1024] (1);
//                       parallelizes the sweep subcommand's probes
//   --json PATH         also write machine-readable JSON results to PATH
//   --csv               machine-readable output where applicable
// elastic options:
//   --epochs N          target number of epochs: the trace is split into
//                       chunks of ceil(queries/N); when N does not divide
//                       --queries the actual count can be one lower (8)
//   --drift T           total-variation drift threshold that triggers
//                       re-partitioning; finite, >= 0 (0.15)
//   --drift-median M    log-normal batch median of the drifted middle
//                       phase of the workload (18)
//   --downtime-ms D     downtime charged per reconfiguration; finite,
//                       >= 0 (2000)
// mix options:
//   --models A,B,...    comma-separated model-zoo names (resnet,mobilenet)
//   --shares X,Y,...    per-model traffic shares, index-aligned with
//                       --models (uniform when omitted)
//   --medians X,Y,...   per-model log-normal batch medians (--median each)
//   --swap-cost-us C    model-swap penalty charged when a partition starts
//                       a query of a non-resident model (0)
//   --budget G          total GPC budget of the consolidated server (48)
//   --gpus N            physical GPUs in the cluster (8)
// fleet options (mix options apply per server):
//   --servers N         number of inference servers (4)
//   --policy P          router policy: hash|least|po2c (hash)
//   --placement K       uniform|sharded model placement (uniform)
//   --replicas R        replicas per model under sharded placement (2)
//   --rate QPS          total offered load across the fleet
//                       (300 x --servers when omitted)
//   --faults F          deterministic fault schedule, optionally
//                       parameterized: none|serverloss|flaky|brownout|
//                       cascade [:key=val,...] (see docs/FAULTS.md);
//                       omitted = fault-free batch path
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/args.h"
#include "common/table.h"
#include "core/experiment.h"
#include "core/fleet_runner.h"
#include "core/mix_runner.h"
#include "core/result_io.h"
#include "core/server_builder.h"
#include "fleet/placement.h"
#include "fleet/router.h"
#include "online/elastic_server.h"
#include "online/repartition_controller.h"
#include "partition/paris.h"
#include "workload/scenario.h"
#include "workload/trace.h"
#include "workload/trace_io.h"

namespace {

using namespace pe;

// Non-negative integer option (counts, sizes); rejects negatives with the
// offending flag named instead of failing deep inside a container resize.
std::size_t GetCount(const ArgParser& args, const std::string& key,
                     long long fallback) {
  const long long v = args.GetInt(key, fallback);
  if (v < 0) {
    throw std::invalid_argument("--" + key +
                                ": expected a non-negative integer, got " +
                                std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

// --queries: at least one.  An empty trace prints a table of zeros, and a
// capacity search over one reports its rate cap.
std::size_t GetQueries(const ArgParser& args, long long fallback) {
  const std::size_t n = GetCount(args, "queries", fallback);
  if (n == 0) throw std::invalid_argument("--queries: expected at least 1");
  return n;
}

// Finite non-negative real option: NaN, infinities and negatives are a
// hard error naming the flag.
double GetNonNegative(const ArgParser& args, const std::string& key,
                      double fallback) {
  const double v = args.GetDouble(key, fallback);
  if (!std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument("--" + key +
                                ": expected a finite number >= 0, got " +
                                std::to_string(v));
  }
  return v;
}

// Experiment-engine thread count.  Out-of-range values (including 0) are
// a hard error rather than a silent clamp, consistent with the other
// count-option validation.
int GetJobs(const ArgParser& args) {
  const long long v = args.GetInt("jobs", 1);
  if (v < 1 || v > 1024) {
    throw std::invalid_argument(
        "--jobs: expected an integer in [1, 1024], got " + std::to_string(v));
  }
  return static_cast<int>(v);
}

// Fail-fast validation of --json PATH: reject an empty path and probe
// that the file is writable (append mode, so an existing file's contents
// survive the probe) before any expensive simulation starts.
void CheckJsonSink(const ArgParser& args) {
  const auto path = args.GetString("json");
  if (!path) return;
  if (path->empty()) {
    throw std::invalid_argument("--json: expected a file path");
  }
  std::ofstream probe(*path, std::ios::app);
  if (!probe) {
    throw std::invalid_argument("--json: cannot open " + *path +
                                " for writing");
  }
}

// Writes `report` to --json PATH when the option is present.
void MaybeWriteJson(const ArgParser& args, core::Json report) {
  const auto path = args.GetString("json");
  if (!path) return;
  core::WriteJsonFile(*path, report);
  std::cerr << "json: " << *path << "\n";
}

// The flags every testbed config shares: --median and --sigma (each
// model's batch distribution), --max-batch and --sla-n.
void ApplyDistFlags(const ArgParser& args, core::MixConfig& config) {
  const double median = args.GetDouble("median", 6.0);
  const double sigma = args.GetDouble("sigma", 0.9);
  for (auto& m : config.models) {
    m.dist_median = median;
    m.dist_sigma = sigma;
  }
  const long long max_batch = args.GetInt("max-batch", 32);
  if (max_batch < 1 || max_batch > 4096) {
    throw std::invalid_argument(
        "--max-batch: expected an integer in [1, 4096], got " +
        std::to_string(max_batch));
  }
  config.max_batch = static_cast<int>(max_batch);
  config.sla_n = args.GetDouble("sla-n", 1.5);
}

// A single-model subcommand's testbed: --model, or the one model of a
// replayed trace (an explicit conflicting --model is an error), on its
// Table-I server.
core::MixConfig ConfigFrom(
    const ArgParser& args,
    const std::optional<workload::TraceDocument>& replay = std::nullopt) {
  std::string model = args.GetString("model", "resnet");
  if (replay) {
    if (const auto flag = args.GetString("model");
        flag && *flag != replay->models[0]) {
      throw std::invalid_argument(
          "--model conflicts with the replayed trace's model '" +
          replay->models[0] + "'");
    }
    model = replay->models[0];
  }
  core::MixConfig config = core::Table1Config(model);
  ApplyDistFlags(args, config);
  return config;
}

partition::PartitionPlan PlanFrom(const core::MixTestbed& tb,
                                  const std::string& design) {
  if (design == "paris") return tb.PlanMixed().plan;
  if (design == "random") return tb.PlanRandom();
  if (design.rfind("gpu", 0) == 0 && design.size() == 4) {
    return tb.PlanHomogeneous(design[3] - '0');
  }
  throw std::invalid_argument("unknown --design: " + design);
}

core::SchedulerKind SchedulerFrom(const std::string& name) {
  if (name == "elsa") return core::SchedulerKind::kElsa;
  if (name == "fifs") return core::SchedulerKind::kFifs;
  if (name == "jsq") return core::SchedulerKind::kJsq;
  if (name == "greedy") return core::SchedulerKind::kGreedyFastest;
  throw std::invalid_argument("unknown --scheduler: " + name);
}

// Splits a comma-separated option value ("a,b,c" -> {"a","b","c"}).
std::vector<std::string> SplitList(const std::string& value) {
  std::vector<std::string> items;
  std::string::size_type begin = 0;
  for (;;) {
    const auto comma = value.find(',', begin);
    items.push_back(value.substr(begin, comma - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return items;
}

// Comma-separated doubles for --shares/--medians; must be index-aligned
// with --models when present.
std::vector<double> GetDoubleList(const ArgParser& args,
                                  const std::string& key,
                                  std::size_t expected) {
  const auto raw = args.GetString(key);
  if (!raw) return {};
  const auto items = SplitList(*raw);
  if (items.size() != expected) {
    throw std::invalid_argument("--" + key + ": expected " +
                                std::to_string(expected) +
                                " comma-separated values, got " +
                                std::to_string(items.size()));
  }
  std::vector<double> values;
  for (const auto& item : items) {
    // Strict parse (same contract as ArgParser::GetDouble): the whole
    // token must be consumed, so "0.6x" is an error, not 0.6.
    std::size_t pos = 0;
    double value = 0.0;
    try {
      value = std::stod(item, &pos);
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + key + ": bad number '" + item + "'");
    }
    if (pos != item.size()) {
      throw std::invalid_argument("--" + key + ": bad number '" + item + "'");
    }
    values.push_back(value);
  }
  return values;
}

// Shared by `mix`, `fleet` (per-server world) and multi-model `elastic`:
// the model list, shares, distributions, budget, and swap cost.  A
// replayed trace's symbolic model names define the model list; an explicit
// conflicting --models is an error rather than a silent mismatch of model
// ids.
core::MixConfig MixConfigFrom(
    const ArgParser& args,
    const std::optional<workload::TraceDocument>& replay = std::nullopt) {
  std::vector<std::string> model_names;
  if (replay) {
    if (const auto flag = args.GetString("models")) {
      if (SplitList(*flag) != replay->models) {
        throw std::invalid_argument(
            "--models conflicts with the replayed trace's models[]; drop "
            "the flag or re-capture");
      }
    }
    model_names = replay->models;
  } else {
    model_names = SplitList(args.GetString("models", "resnet,mobilenet"));
  }
  const auto shares = GetDoubleList(args, "shares", model_names.size());
  const auto medians = GetDoubleList(args, "medians", model_names.size());

  core::MixConfig mc;
  for (const auto& name : model_names) mc.models.push_back({.model = name});
  ApplyDistFlags(args, mc);
  for (std::size_t i = 0; i < model_names.size(); ++i) {
    if (!shares.empty()) mc.models[i].share = shares[i];
    if (!medians.empty()) mc.models[i].dist_median = medians[i];
  }
  mc.num_gpus = static_cast<int>(GetCount(args, "gpus", 8));
  mc.gpc_budget = static_cast<int>(GetCount(args, "budget", 48));
  mc.swap_cost_us = GetNonNegative(args, "swap-cost-us", 0.0);
  return mc;
}

// ---- Scenario / capture / replay plumbing ---------------------------------
//
// Every trace-driven subcommand resolves its workload the same way:
//   --replay-trace PATH   -> the captured document verbatim, or else
//   --scenario REF        -> the testbed's spec reshaped by the preset, or
//   (neither)             -> the testbed's spec unmodified (steady), the
//                            constant-rate stream every seeded result uses.
// --capture-trace PATH then saves whatever was run.

// The scenario reference driving this run, for report labels.
std::string ScenarioLabel(const ArgParser& args) {
  return args.GetString("scenario", "steady");
}

// Loads --replay-trace PATH; nullopt when the option is absent.  Replay is
// exclusive with --scenario: the trace is fixed, reshaping it is a
// contradiction.
std::optional<workload::TraceDocument> LoadReplayDoc(const ArgParser& args) {
  const auto path = args.GetString("replay-trace");
  if (!path) return std::nullopt;
  if (args.GetString("scenario")) {
    throw std::invalid_argument(
        "--scenario cannot reshape a replayed trace; drop one of "
        "--scenario/--replay-trace");
  }
  auto doc = workload::LoadTraceFile(*path);
  std::cerr << "replay: " << *path << " (" << doc.trace.size()
            << " queries, " << doc.models.size() << " models)\n";
  return doc;
}

// Writes the run's workload to --capture-trace PATH as a
// paris-elsa-trace-v1 document (models[] symbolic, see workload/trace_io.h).
void MaybeCaptureTrace(const ArgParser& args,
                       const workload::QueryTrace& trace,
                       std::vector<std::string> models, std::string label) {
  const auto path = args.GetString("capture-trace");
  if (!path) return;
  if (path->empty()) {
    throw std::invalid_argument("--capture-trace: expected a file path");
  }
  workload::TraceDocument doc;
  doc.scenario = std::move(label);
  doc.models = std::move(models);
  doc.trace = trace;
  workload::SaveTraceFile(*path, doc);
  std::cerr << "capture: " << *path << "\n";
}

// Applies --scenario NAME[:key=val,...] onto the testbed-derived spec and
// drains it on a fresh Rng(seed); without the option the spec runs
// unmodified.
workload::QueryTrace ScenarioTraceFrom(const ArgParser& args,
                                       workload::ScenarioSpec spec,
                                       std::size_t num_queries,
                                       std::uint64_t seed) {
  if (const auto ref = args.GetString("scenario")) {
    workload::ApplyScenario(spec, *ref);
  }
  return workload::GenerateScenarioTrace(spec, num_queries, seed);
}

struct ResolvedWorkload {
  workload::QueryTrace trace;
  std::string label;  // scenario name (or the replayed document's label)
};

// The one workload resolution every testbed-driven subcommand shares, so
// scenario options apply identically to all of them (and to any
// standalone replay of a captured fleet sub-trace).
ResolvedWorkload ResolveWorkload(
    const ArgParser& args, const core::MixTestbed& tb,
    const std::optional<workload::TraceDocument>& replay, double rate_qps,
    std::size_t num_queries, std::uint64_t seed) {
  ResolvedWorkload w;
  if (replay) {
    w.trace = replay->trace;
    w.label = replay->scenario.empty() ? "replay" : replay->scenario;
  } else {
    w.trace =
        ScenarioTraceFrom(args, tb.ScenarioFor(rate_qps), num_queries, seed);
    w.label = ScenarioLabel(args);
  }
  MaybeCaptureTrace(args, w.trace, tb.ModelNames(), w.label);
  return w;
}

int CmdProfile(const ArgParser& args) {
  const core::MixTestbed tb(ConfigFrom(args));
  tb.repertoire().profile(0).SaveCsv(std::cout);
  return 0;
}

int CmdPlan(const ArgParser& args) {
  const core::MixTestbed tb(ConfigFrom(args));
  const core::MixConfig& config = tb.config();
  // PARIS itself rather than PlanMixed: a one-model mixed plan is the same
  // layout, but only PARIS's own plan explains it with knees and ratios.
  partition::ParisPartitioner paris(tb.repertoire().profile(0),
                                    tb.batch_dist(0), config.paris);
  const auto plan = paris.Plan(tb.cluster(), config.gpc_budget);
  std::cout << "model:      " << config.models[0].model << "\n"
            << "budget:     " << config.gpc_budget << " GPCs on "
            << config.num_gpus << " GPUs\n"
            << "sla:        " << TicksToMs(tb.sla_target()) << " ms\n"
            << "plan:       " << plan.Summary() << "\n"
            << "placement:  " << plan.layout.ToString() << "\n"
            << "rationale:  " << plan.rationale << "\n";
  return 0;
}

int CmdSimulate(const ArgParser& args) {
  // --jobs is validated for interface uniformity, but a single simulation
  // (and the serial bisection behind auto rate) runs on one thread; the
  // emitted report records the thread count actually used.
  GetJobs(args);
  CheckJsonSink(args);
  const auto replay = LoadReplayDoc(args);
  if (replay && replay->models.size() != 1) {
    throw std::invalid_argument(
        "simulate replays single-model traces; the document carries " +
        std::to_string(replay->models.size()) + " models (use mix or fleet)");
  }
  const core::MixTestbed tb(ConfigFrom(args, replay));
  const auto plan = PlanFrom(tb, args.GetString("design", "paris"));
  const auto kind = SchedulerFrom(args.GetString("scheduler", "elsa"));

  core::RunOptions run;
  run.num_queries = GetQueries(args, 20000);
  run.seed = static_cast<std::uint64_t>(GetCount(args, "seed", 1));
  run.rate_qps = args.GetDouble("rate", 0.0);
  if (!(run.rate_qps >= 0.0)) {
    throw std::invalid_argument("--rate: expected a number >= 0 (0 = auto), "
                                "got " + std::to_string(run.rate_qps));
  }
  if (run.rate_qps == 0.0 && !replay) {
    const auto bound = core::LatencyBoundedThroughput(
        tb, plan, kind, TicksToMs(tb.sla_target()));
    run.rate_qps = 0.85 * bound.qps;
    std::cerr << "auto rate: " << run.rate_qps << " qps\n";
  }
  const auto workload = ResolveWorkload(args, tb, replay, run.rate_qps,
                                        run.num_queries, run.seed);
  if (replay) run.rate_qps = workload.trace.OfferedQps();

  auto scheduler = tb.MakeScheduler(kind);
  const auto result =
      tb.Run(plan.instance_gpcs, *scheduler, workload.trace, run.seed);
  const auto stats = result.Stats(tb.sla_target());

  Table t({"metric", "value"});
  t.AddRow({"design", plan.Summary()});
  t.AddRow({"scheduler", ToString(kind)});
  t.AddRow({"offered qps", Table::Num(run.rate_qps, 1)});
  t.AddRow({"achieved qps", Table::Num(stats.achieved_qps, 1)});
  t.AddRow({"mean ms", Table::Num(stats.mean_latency_ms, 3)});
  t.AddRow({"p50 ms", Table::Num(stats.p50_latency_ms, 3)});
  t.AddRow({"p95 ms", Table::Num(stats.p95_latency_ms, 3)});
  t.AddRow({"p99 ms", Table::Num(stats.p99_latency_ms, 3)});
  t.AddRow({"SLA violation %", Table::Num(100 * stats.sla_violation_rate, 2)});
  t.AddRow({"GPU utilization %",
            Table::Num(100 * stats.mean_worker_utilization, 1)});
  if (args.HasFlag("csv")) {
    t.PrintCsv(std::cout);
  } else {
    t.Print(std::cout);
  }

  core::Json data = core::Json::Object();
  data.Set("model", tb.config().models[0].model);
  data.Set("design", plan.Summary());
  data.Set("scheduler", core::ToString(kind));
  data.Set("scenario", workload.label);
  data.Set("offered_qps", run.rate_qps);
  data.Set("achieved_qps", stats.achieved_qps);
  data.Set("mean_ms", stats.mean_latency_ms);
  data.Set("p50_ms", stats.p50_latency_ms);
  data.Set("p95_ms", stats.p95_latency_ms);
  data.Set("p99_ms", stats.p99_latency_ms);
  data.Set("sla_violation_rate", stats.sla_violation_rate);
  data.Set("utilization", stats.mean_worker_utilization);
  auto report = core::MakeBenchReport("cli_simulate", false, /*jobs=*/1);
  report.Set("data", std::move(data));
  MaybeWriteJson(args, std::move(report));
  return 0;
}

int CmdSweep(const ArgParser& args) {
  const int jobs = GetJobs(args);
  CheckJsonSink(args);
  const core::MixTestbed tb(ConfigFrom(args));
  const double sla_ms = TicksToMs(tb.sla_target());
  core::SearchOptions search;
  search.num_queries = GetQueries(args, 4000);
  search.jobs = jobs;

  Table t({"design", "qps", "normalized"});
  std::vector<core::ProbeSpec> specs;
  for (int size : {7, 3, 2, 1}) {
    specs.push_back({"GPU(" + std::to_string(size) + ")+FIFS",
                     tb.PlanHomogeneous(size), core::SchedulerKind::kFifs,
                     sched::ElsaParams{}});
  }
  specs.push_back({"Random+ELSA", tb.PlanRandom(), core::SchedulerKind::kElsa,
                   sched::ElsaParams{}});
  const partition::PartitionPlan paris = tb.PlanMixed().plan;
  specs.push_back({"PARIS+FIFS", paris, core::SchedulerKind::kFifs,
                   sched::ElsaParams{}});
  specs.push_back({"PARIS+ELSA", paris, core::SchedulerKind::kElsa,
                   sched::ElsaParams{}});

  // The designs are independent probes; fan out across --jobs threads.
  const auto results =
      core::LatencyBoundedThroughputBatch(tb, specs, sla_ms, search);

  core::Json design_results = core::Json::Array();
  double base = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (base == 0.0) base = results[i].qps;
    const double norm = base > 0 ? results[i].qps / base : 0.0;
    t.AddRow({specs[i].label, Table::Num(results[i].qps, 0),
              Table::Num(norm, 2)});
    core::Json d = core::ToJson(results[i]);
    d.Set("design", specs[i].label);
    d.Set("normalized", norm);
    design_results.Add(std::move(d));
  }
  if (args.HasFlag("csv")) {
    t.PrintCsv(std::cout);
  } else {
    t.Print(std::cout);
  }

  core::Json data = core::Json::Object();
  data.Set("model", tb.config().models[0].model);
  data.Set("sla_ms", sla_ms);
  data.Set("baseline", specs.front().label);
  data.Set("designs", std::move(design_results));
  auto report = core::MakeBenchReport("cli_sweep", false, jobs);
  report.Set("data", std::move(data));
  MaybeWriteJson(args, std::move(report));
  return 0;
}

// Epoch granularity shared by both elastic forms: ceil(trace/epochs),
// --epochs validated against the actual trace length.
std::size_t QueriesPerEpoch(const ArgParser& args, std::size_t num_queries) {
  const std::size_t epochs = GetCount(args, "epochs", 8);
  if (epochs < 1 || epochs > num_queries) {
    throw std::invalid_argument(
        "--epochs: expected an integer in [1, #queries], got " +
        std::to_string(epochs));
  }
  return (num_queries + epochs - 1) / epochs;
}

online::ElasticConfig ElasticConfigFrom(const ArgParser& args,
                                        std::size_t queries_per_epoch) {
  const double downtime_ms = GetNonNegative(args, "downtime-ms", 2000.0);
  const std::optional<SimTime> downtime = CheckedTicks(downtime_ms, kNsPerMs);
  if (!downtime) {
    std::ostringstream oss;
    oss << "--downtime-ms: " << downtime_ms
        << " ms overflows the tick clock (2^63 ns)";
    throw std::invalid_argument(oss.str());
  }
  online::ElasticConfig econfig;
  econfig.drift_threshold = GetNonNegative(args, "drift", 0.15);
  econfig.reconfig_downtime = *downtime;
  // Trust the estimator once it has seen half an epoch (capped at the
  // library default) so short smoke runs can still reconfigure.
  econfig.min_observations =
      std::min<std::size_t>(econfig.min_observations, queries_per_epoch / 2);
  return econfig;
}

// The elastic tail: a RepartitionController seeded with the testbed's
// mix (the provisioning guess; one component for a single model) chases
// the live traffic of `workload` through one continuous ElasticServerSim
// run on `tb`'s server, and the run is reported.
int RunElastic(const ArgParser& args, const core::MixTestbed& tb,
               const ResolvedWorkload& workload, core::SchedulerKind kind,
               std::uint64_t seed, double rate_qps) {
  const workload::QueryTrace& trace = workload.trace;
  const std::size_t queries_per_epoch = QueriesPerEpoch(args, trace.size());
  const online::ElasticConfig econfig =
      ElasticConfigFrom(args, queries_per_epoch);
  const core::MixConfig& config = tb.config();
  online::RepartitionController controller(
      tb.repertoire(), tb.cluster(), config.gpc_budget, tb.PlannerInputs(),
      config.paris, econfig);
  online::ElasticServerSim sim(
      controller, tb.repertoire(), [&] { return tb.MakeScheduler(kind); },
      tb.sla_target(), queries_per_epoch, seed, tb.swap_cost());
  const auto result = sim.Run(trace);

  std::string model_label;
  for (const auto& name : tb.ModelNames()) {
    if (!model_label.empty()) model_label += "+";
    model_label += name;
  }

  Table e({"epoch", "layout", "p95 ms", "viol. %", "stalled", "reconfig"});
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    const auto& ep = result.epochs[i];
    partition::PartitionPlan tmp;
    tmp.instance_gpcs = ep.layout;
    e.AddRow({Table::Int(static_cast<long long>(i)), tmp.Summary(),
              Table::Num(ep.p95_ms, 2), Table::Num(100 * ep.violation_rate, 2),
              Table::Int(static_cast<long long>(ep.stalled)),
              ep.reconfigured ? "yes" : ""});
  }
  Table t({"metric", "value"});
  t.AddRow({"model", model_label});
  t.AddRow({"scheduler", ToString(kind)});
  t.AddRow({"scenario", workload.label});
  t.AddRow({"offered qps", Table::Num(rate_qps, 1)});
  t.AddRow({"reconfigurations", Table::Int(result.reconfigurations)});
  t.AddRow({"stalled queries",
            Table::Int(static_cast<long long>(result.total.reconfig_stalled))});
  t.AddRow({"p95 ms", Table::Num(result.total.p95_latency_ms, 3)});
  t.AddRow({"SLA violation %",
            Table::Num(100 * result.total.sla_violation_rate, 2)});
  if (args.HasFlag("csv")) {
    e.PrintCsv(std::cout);
    t.PrintCsv(std::cout);
  } else {
    e.Print(std::cout);
    std::cout << "\n";
    t.Print(std::cout);
  }

  core::Json data = core::ToJson(result);
  data.Set("model", model_label);
  data.Set("scheduler", core::ToString(kind));
  data.Set("scenario", workload.label);
  data.Set("offered_qps", rate_qps);
  data.Set("queries_per_epoch", static_cast<std::uint64_t>(queries_per_epoch));
  data.Set("drift_threshold", econfig.drift_threshold);
  data.Set("downtime_ms", TicksToMs(econfig.reconfig_downtime));
  data.Set("seed", seed);
  auto report = core::MakeBenchReport("cli_elastic", false, /*jobs=*/1);
  report.Set("data", std::move(data));
  MaybeWriteJson(args, std::move(report));
  return 0;
}

// Elastic serving under drift.  A single model (--model, on its Table-I
// server) replays the legacy day cycle unless a scenario or a replay is
// given; a mix (--models, or a replayed multi-model capture) chases the
// live shares, re-deriving per-model budgets.  The designed demo of the
// mix-drift machinery:
//   paris_elsa_cli elastic --models resnet,mobilenet --scenario mixdrift
int CmdElastic(const ArgParser& args) {
  CheckJsonSink(args);
  const auto replay = LoadReplayDoc(args);
  const auto kind = SchedulerFrom(args.GetString("scheduler", "elsa"));
  const auto seed = static_cast<std::uint64_t>(GetCount(args, "seed", 1));
  const double rate_qps = args.GetDouble("rate", 300.0);
  const std::size_t num_queries = GetQueries(args, 12000);

  const bool multi_model =
      args.GetString("models") || (replay && replay->models.size() > 1);
  const core::MixConfig config =
      multi_model ? MixConfigFrom(args, replay) : ConfigFrom(args, replay);
  const core::MixTestbed tb(config);
  if (multi_model || replay || args.GetString("scenario")) {
    const auto workload =
        ResolveWorkload(args, tb, replay, rate_qps, num_queries, seed);
    return RunElastic(args, tb, workload, kind, seed, rate_qps);
  }
  // Legacy day-cycle drift: base-median phase, drifted-median phase, and
  // back (batch-size drift; a single model's share cannot drift).
  const core::MixModelConfig& m = config.models[0];
  const int max_batch = config.max_batch;
  const double drift_median = args.GetDouble("drift-median", 18.0);
  const workload::LogNormalBatchDist base(m.dist_median, m.dist_sigma,
                                          max_batch);
  const workload::LogNormalBatchDist drifted(drift_median, m.dist_sigma,
                                             max_batch);
  const std::size_t third = num_queries / 3;
  ResolvedWorkload workload;
  workload.trace = workload::GeneratePhasedTrace(
      rate_qps,
      {{&base, third}, {&drifted, third}, {&base, num_queries - 2 * third}},
      num_queries, seed);
  workload.label = "drift-phases";
  MaybeCaptureTrace(args, workload.trace, tb.ModelNames(), workload.label);
  return RunElastic(args, tb, workload, kind, seed, rate_qps);
}

int CmdMix(const ArgParser& args) {
  CheckJsonSink(args);
  const auto replay = LoadReplayDoc(args);
  const core::MixConfig mc =
      MixConfigFrom(args, replay);
  const core::MixTestbed tb(mc);
  const auto kind = SchedulerFrom(args.GetString("scheduler", "elsa"));
  const double rate_qps = args.GetDouble("rate", 300.0);
  const std::size_t num_queries = GetQueries(args, 20000);
  const auto seed = static_cast<std::uint64_t>(GetCount(args, "seed", 1));

  const auto mixed = tb.PlanMixed();
  const auto workload =
      ResolveWorkload(args, tb, replay, rate_qps, num_queries, seed);
  const auto& trace = workload.trace;
  auto scheduler = tb.MakeScheduler(kind);
  const auto result =
      tb.Run(mixed.plan.instance_gpcs, *scheduler, trace, seed);
  const auto stats = result.Stats(tb.sla_target());

  Table t({"metric", "value"});
  t.AddRow({"design", mixed.plan.Summary()});
  t.AddRow({"scheduler", ToString(kind)});
  t.AddRow({"offered qps", Table::Num(rate_qps, 1)});
  t.AddRow({"achieved qps", Table::Num(stats.achieved_qps, 1)});
  t.AddRow({"p95 ms", Table::Num(stats.p95_latency_ms, 3)});
  t.AddRow({"p99 ms", Table::Num(stats.p99_latency_ms, 3)});
  t.AddRow({"SLA violation %", Table::Num(100 * stats.sla_violation_rate, 2)});
  t.AddRow({"model swaps",
            Table::Int(static_cast<long long>(stats.model_swaps))});

  // Report the *normalized* traffic split, not the raw weights (which
  // need not sum to 1, e.g. when --shares is omitted).
  double share_total = 0.0;
  for (const auto& m : mc.models) share_total += m.share;
  std::vector<double> norm_shares;
  for (const auto& m : mc.models) norm_shares.push_back(m.share / share_total);
  Table per_model({"model", "share", "budget", "queries", "p95 ms",
                   "viol. %", "swaps"});
  for (const auto& m : stats.models) {
    const auto idx = static_cast<std::size_t>(m.model);
    per_model.AddRow(
        {tb.repertoire().name(m.model),
         Table::Num(norm_shares[idx], 2),
         Table::Int(mixed.budgets[idx]),
         Table::Int(static_cast<long long>(m.completed)),
         Table::Num(m.p95_latency_ms, 3),
         Table::Num(100 * m.sla_violation_rate, 2),
         Table::Int(static_cast<long long>(m.swaps))});
  }
  if (args.HasFlag("csv")) {
    t.PrintCsv(std::cout);
    per_model.PrintCsv(std::cout);
  } else {
    t.Print(std::cout);
    std::cout << "\n";
    per_model.Print(std::cout);
  }

  core::Json data = core::ToJson(stats);
  core::Json models = core::Json::Array();
  for (std::size_t i = 0; i < mc.models.size(); ++i) {
    core::Json m = core::Json::Object();
    m.Set("model", mc.models[i].model);
    m.Set("share", norm_shares[i]);
    m.Set("budget_gpcs", mixed.budgets[i]);
    models.Add(std::move(m));
  }
  data.Set("mix", std::move(models));
  data.Set("design", mixed.plan.Summary());
  data.Set("scheduler", core::ToString(kind));
  data.Set("scenario", workload.label);
  data.Set("offered_qps", rate_qps);
  data.Set("swap_cost_us", mc.swap_cost_us);
  data.Set("seed", seed);
  auto report = core::MakeBenchReport("cli_mix", false, /*jobs=*/1);
  report.Set("data", std::move(data));
  MaybeWriteJson(args, std::move(report));
  return 0;
}

int CmdFleet(const ArgParser& args) {
  const int jobs = GetJobs(args);
  CheckJsonSink(args);
  const auto replay = LoadReplayDoc(args);

  core::FleetTestbedConfig fc;
  fc.mix = MixConfigFrom(args, replay);
  fc.num_servers = static_cast<int>(GetCount(args, "servers", 4));
  if (fc.num_servers < 1) {
    throw std::invalid_argument("--servers: expected >= 1");
  }
  const std::string placement_name = args.GetString("placement", "uniform");
  const auto placement = fleet::ParsePlacementKind(placement_name);
  if (!placement) {
    throw std::invalid_argument("unknown --placement: " + placement_name +
                                " (expected uniform|sharded)");
  }
  fc.placement = *placement;
  fc.replicas = static_cast<int>(GetCount(args, "replicas", 2));
  const std::string policy_name = args.GetString("policy", "hash");
  const auto policy = fleet::ParseRouterPolicy(policy_name);
  if (!policy) {
    throw std::invalid_argument("unknown --policy: " + policy_name +
                                " (expected hash|least|po2c)");
  }
  fc.policy = *policy;
  fc.scheduler = SchedulerFrom(args.GetString("scheduler", "elsa"));
  const auto seed = static_cast<std::uint64_t>(GetCount(args, "seed", 1));
  fc.seed = seed;

  const core::FleetTestbed tb(fc);
  double rate_qps =
      args.GetDouble("rate", 300.0 * static_cast<double>(fc.num_servers));
  const std::size_t num_queries = GetQueries(args, 100000);
  const auto workload =
      ResolveWorkload(args, tb.mix(), replay, rate_qps, num_queries, seed);
  const auto& trace = workload.trace;
  if (replay) rate_qps = trace.OfferedQps();
  // --faults NAME[:k=v,...] runs the fault-tolerant driver; "none" (or no
  // flag) takes the fault-free batch path unchanged.
  fleet::FleetResult result;
  std::string faults_label = "none";
  if (const auto fref = args.GetString("faults")) {
    const fleet::FaultPlan plan =
        tb.ResolveFaults(fleet::ParseFaultRef(*fref), trace);
    faults_label = *fref;
    result = tb.RunWithFaults(trace, plan, jobs);
  } else {
    result = tb.Run(trace, jobs);
  }
  const auto stats = result.Stats(tb.sla_target(), /*warmup_fraction=*/0.1,
                                  jobs);

  Table t({"metric", "value"});
  t.AddRow({"servers", Table::Int(fc.num_servers)});
  t.AddRow({"policy", policy_name});
  t.AddRow({"placement", placement_name});
  t.AddRow({"scheduler", ToString(fc.scheduler)});
  t.AddRow({"offered qps", Table::Num(rate_qps, 1)});
  t.AddRow({"fleet qps", Table::Num(stats.aggregate.achieved_qps, 1)});
  t.AddRow({"p95 ms", Table::Num(stats.aggregate.p95_latency_ms, 3)});
  t.AddRow({"p99 ms", Table::Num(stats.aggregate.p99_latency_ms, 3)});
  t.AddRow({"SLA violation %",
            Table::Num(100 * stats.aggregate.sla_violation_rate, 2)});
  t.AddRow({"model swaps",
            Table::Int(static_cast<long long>(stats.aggregate.model_swaps))});
  if (stats.fault.faulted) {
    const fleet::FaultSummary& ft = stats.fault;
    double min_avail = 1.0;
    for (const double a : ft.availability) min_avail = std::min(min_avail, a);
    t.AddRow({"faults", faults_label});
    t.AddRow({"injected", Table::Int(static_cast<long long>(ft.injected))});
    t.AddRow({"completed", Table::Int(static_cast<long long>(ft.completed))});
    t.AddRow({"failed", Table::Int(static_cast<long long>(ft.failed))});
    t.AddRow({"shed", Table::Int(static_cast<long long>(ft.shed))});
    t.AddRow({"retried", Table::Int(static_cast<long long>(ft.retried))});
    t.AddRow({"rerouted", Table::Int(static_cast<long long>(ft.rerouted))});
    t.AddRow({"repartitions",
              Table::Int(static_cast<long long>(ft.repartitions))});
    t.AddRow({"min availability", Table::Num(min_avail, 4)});
    if (ft.incident_completions > 0) {
      t.AddRow({"p99 incident ms", Table::Num(ft.p99_incident_ms, 3)});
    }
  }

  Table per_server({"server", "routed", "qps", "p95 ms", "viol. %"});
  for (std::size_t s = 0; s < stats.per_server.size(); ++s) {
    const auto& ss = stats.per_server[s];
    per_server.AddRow(
        {Table::Int(static_cast<long long>(s)),
         Table::Int(static_cast<long long>(stats.routed_per_server[s])),
         Table::Num(ss.achieved_qps, 1), Table::Num(ss.p95_latency_ms, 3),
         Table::Num(100 * ss.sla_violation_rate, 2)});
  }
  if (args.HasFlag("csv")) {
    t.PrintCsv(std::cout);
    per_server.PrintCsv(std::cout);
  } else {
    t.Print(std::cout);
    std::cout << "\n";
    per_server.Print(std::cout);
  }

  core::Json data = core::ToJson(stats);
  data.Set("policy", policy_name);
  data.Set("placement", placement_name);
  data.Set("scheduler", core::ToString(fc.scheduler));
  data.Set("scenario", workload.label);
  data.Set("offered_qps", rate_qps);
  data.Set("swap_cost_us", fc.mix.swap_cost_us);
  data.Set("seed", seed);
  if (stats.fault.faulted) data.Set("faults", faults_label);
  auto report = core::MakeBenchReport("cli_fleet", false, jobs);
  report.Set("data", std::move(data));
  MaybeWriteJson(args, std::move(report));
  return 0;
}

int CmdTrace(const ArgParser& args) {
  const auto replay = LoadReplayDoc(args);
  // No testbed: any zoo model traces, whether Table I lists it or not.
  core::MixConfig config;
  config.models.push_back({.model = args.GetString("model", "resnet")});
  ApplyDistFlags(args, config);
  const core::MixModelConfig& m = config.models[0];
  const auto seed = static_cast<std::uint64_t>(GetCount(args, "seed", 1));

  workload::QueryTrace trace;
  std::vector<std::string> models;
  std::string scenario_label;
  if (replay) {
    // JSON -> CSV conversion path (stdout stays CSV either way).
    trace = replay->trace;
    models = replay->models;
    scenario_label = replay->scenario.empty() ? "replay" : replay->scenario;
  } else {
    workload::ScenarioSpec spec;
    spec.rate.base_qps = args.GetDouble("rate", 100.0);
    spec.max_batch = config.max_batch;
    workload::ComponentSpec c;
    c.model_name = m.model;
    c.median = m.dist_median;
    c.sigma = m.dist_sigma;
    spec.components.push_back(std::move(c));
    trace = ScenarioTraceFrom(args, std::move(spec),
                              GetQueries(args, 10000), seed);
    models = {m.model};
    scenario_label = ScenarioLabel(args);
  }
  MaybeCaptureTrace(args, trace, std::move(models), scenario_label);
  trace.SaveCsv(std::cout);
  return 0;
}

void PrintUsage(std::ostream& os) {
  os << "usage: paris_elsa_cli "
        "<profile|plan|simulate|sweep|trace|elastic|mix|fleet> "
        "[--model M] [--design D] [--scheduler S] [--rate QPS] "
        "[--queries N] [--median M] [--sigma S] [--max-batch B] "
        "[--sla-n N] [--seed S] [--jobs N] [--json PATH] [--csv] "
        "[--scenario NAME[:k=v,...]] [--capture-trace PATH] "
        "[--replay-trace PATH] "
        "[--epochs N] [--drift T] [--drift-median M] [--downtime-ms D] "
        "[--models A,B] [--shares X,Y] [--medians X,Y] [--swap-cost-us C] "
        "[--budget G] [--gpus N] [--servers N] [--policy P] "
        "[--placement K] [--replicas R] [--faults NAME[:k=v,...]] "
        "[--help]\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto known = std::vector<std::string>{
      "model", "design", "scheduler", "rate", "queries", "median", "sigma",
      "max-batch", "sla-n", "seed", "jobs", "json", "csv", "scenario",
      "capture-trace", "replay-trace", "epochs", "drift", "drift-median",
      "downtime-ms", "models", "shares", "medians", "swap-cost-us", "budget",
      "gpus", "servers", "policy", "placement", "replicas", "faults", "help",
      "h"};
  try {
    // A token past the subcommand (`plan bert`) throws here, naming it.
    const ArgParser args(argc, argv, /*flags=*/{"csv", "help", "h"});
    const auto sub = args.Subcommand();
    if (args.HasFlag("help") || args.HasFlag("h") ||
        (sub && *sub == "help")) {
      PrintUsage(std::cout);
      return 0;
    }
    if (const auto unknown = args.UnknownKeys(known); !unknown.empty()) {
      throw std::invalid_argument("unknown option " +
                                  args.Spelling(unknown.front()));
    }
    if (!sub) {
      PrintUsage(std::cerr);
      return 2;
    }
    if (*sub == "profile") return CmdProfile(args);
    if (*sub == "plan") return CmdPlan(args);
    if (*sub == "simulate") return CmdSimulate(args);
    if (*sub == "sweep") return CmdSweep(args);
    if (*sub == "trace") return CmdTrace(args);
    if (*sub == "elastic") return CmdElastic(args);
    if (*sub == "mix") return CmdMix(args);
    if (*sub == "fleet") return CmdFleet(args);
    std::cerr << "unknown subcommand: " << *sub << "\n";
    PrintUsage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
