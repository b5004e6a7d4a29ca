// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/mix_runner.h"
#include "core/result_io.h"

namespace pe::bench {

inline const std::vector<std::string>& PaperModels() {
  static const std::vector<std::string> kModels = {
      "shufflenet", "mobilenet", "resnet", "bert", "conformer"};
  return kModels;
}

// A named (plan, scheduler) design point.
struct Design {
  std::string label;
  partition::PartitionPlan plan;
  core::SchedulerKind kind = core::SchedulerKind::kFifs;
};

// The paper's six evaluated design families (Section VI) minus GPU(max),
// which callers derive via core::BestHomogeneous.
inline std::vector<Design> PaperDesigns(const core::MixTestbed& tb,
                                        bool include_gpu4 = false) {
  std::vector<Design> designs;
  for (int size : {7, 3, 2, 1}) {
    designs.push_back({"GPU(" + std::to_string(size) + ")+FIFS",
                       tb.PlanHomogeneous(size),
                       core::SchedulerKind::kFifs});
  }
  if (include_gpu4) {
    designs.push_back(
        {"GPU(4)+FIFS", tb.PlanHomogeneous(4), core::SchedulerKind::kFifs});
  }
  designs.push_back(
      {"Random+FIFS", tb.PlanRandom(), core::SchedulerKind::kFifs});
  designs.push_back(
      {"Random+ELSA", tb.PlanRandom(), core::SchedulerKind::kElsa});
  const partition::PartitionPlan paris = tb.PlanMixed().plan;
  designs.push_back({"PARIS+FIFS", paris, core::SchedulerKind::kFifs});
  designs.push_back({"PARIS+ELSA", paris, core::SchedulerKind::kElsa});
  return designs;
}

// PE_BENCH_SMOKE=1 in the environment shrinks the search work so every
// bench finishes in seconds; used by tools/run_all_benches.sh for CI-style
// smoke runs.  Numbers stay paper-faithful when the variable is unset.
inline bool SmokeMode() {
  static const bool smoke = [] {
    const char* v = std::getenv("PE_BENCH_SMOKE");
    std::string s = v == nullptr ? "" : v;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const bool on =
        !(s.empty() || s == "0" || s == "false" || s == "off" || s == "no");
    if (on) {
      std::cerr << "note: PE_BENCH_SMOKE is set -- reduced search work; "
                   "numbers are NOT paper-faithful\n";
    }
    return on;
  }();
  return smoke;
}

// Query count honoring smoke mode: benches that want more than the
// default search length route their override through this so
// PE_BENCH_SMOKE still caps the workload.
inline std::size_t Queries(std::size_t n) {
  return SmokeMode() ? std::min<std::size_t>(n, 500) : n;
}

// Experiment-engine threads: PE_BENCH_JOBS in the environment, defaulting
// to the hardware thread count.  Determinism is per-task (fresh scheduler
// and seeded RNG per probe), so any jobs value yields identical numbers.
inline int Jobs() {
  static const int jobs = [] {
    if (const char* v = std::getenv("PE_BENCH_JOBS")) {
      const int parsed = std::atoi(v);
      if (parsed >= 1) return parsed;
      std::cerr << "note: ignoring invalid PE_BENCH_JOBS=" << v << "\n";
    }
    return static_cast<int>(ThreadPool::DefaultThreads());
  }();
  return jobs;
}

inline core::SearchOptions DefaultSearch() {
  core::SearchOptions so;
  so.num_queries = Queries(4000);
  so.iterations = SmokeMode() ? 5 : 9;
  so.jobs = Jobs();
  return so;
}

// JSON sink: when PE_BENCH_JSON_DIR is set each bench drops its
// machine-readable report at <dir>/<bench_name>.json (the directory must
// exist); tools/run_all_benches.sh aggregates them into bench_results.json.
// Reports are additive: CI asserts on specific fields (engine_throughput's
// fleet and chaos legs -- per-policy router_qps, split_qps, sim_qps,
// stats_sec, fleet_qps, fleet_identical_jobs1, and the chaos_* and
// degraded_shed_* fields -- are gated by both bench-smoke and
// engine-perf), so rename fields only with the workflow.
inline std::optional<std::string> JsonOutPath(const std::string& bench_name) {
  const char* dir = std::getenv("PE_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return std::nullopt;
  return std::string(dir) + "/" + bench_name + ".json";
}

// Attaches `data` to a schema-versioned report and writes it to the JSON
// sink, if one is configured.  Returns false when the sink is unset or
// unwritable (warning on stderr): a broken sink must not turn a completed
// bench run into a crash after all its tables already printed.
inline bool WriteReport(const std::string& bench_name, core::Json data) {
  const auto path = JsonOutPath(bench_name);
  if (!path) return false;
  auto report = core::MakeBenchReport(bench_name, SmokeMode(), Jobs());
  report.Set("data", std::move(data));
  try {
    core::WriteJsonFile(*path, report);
  } catch (const std::exception& e) {
    std::cerr << "warning: JSON report not written: " << e.what() << "\n";
    return false;
  }
  std::cerr << "json: " << *path << "\n";
  return true;
}

inline void PrintHeader(const std::string& title, const std::string& note) {
  std::cout << "==================================================\n"
            << title << "\n" << note << "\n"
            << "==================================================\n\n";
}

}  // namespace pe::bench
