// scheduler_comparison: traces how FIFS and ELSA handle the same query
// stream on the same heterogeneous server, then sweeps the load level.
//
// Demonstrates the paper's Figure 10 mechanism at query granularity: ELSA
// detects that a heavy query would violate SLA on a small idle partition
// and waits for (or picks) a larger one.
//
// Usage: scheduler_comparison [model]   (default: resnet)
#include <iostream>
#include <map>
#include <string>

#include "common/table.h"
#include "core/experiment.h"

int main(int argc, char** argv) {
  using namespace pe;
  const std::string model = argc > 1 ? argv[1] : "resnet";
  const core::MixTestbed tb(core::Table1Config(model));
  const auto plan = tb.PlanMixed().plan;
  const double sla_ms = TicksToMs(tb.sla_target());

  std::cout << "Model " << model << ", server " << plan.Summary();
  std::cout << ", SLA " << Table::Num(sla_ms, 1) << " ms\n\n";

  // Where do batches land?  Per-scheduler histogram of batch -> partition.
  core::RunOptions opt;
  opt.num_queries = 12000;
  const auto capacity = core::LatencyBoundedThroughput(
      tb, plan, core::SchedulerKind::kElsa, sla_ms);
  opt.rate_qps = 0.8 * capacity.qps;

  for (auto kind : {core::SchedulerKind::kFifs, core::SchedulerKind::kElsa}) {
    auto scheduler = tb.MakeScheduler(kind);
    const auto result = tb.Run(plan.instance_gpcs, *scheduler, opt);
    // batch bucket -> (gpcs -> count)
    std::map<int, std::map<int, int>> routing;
    for (const auto& r : result.records) {
      int bucket = 1;
      while (bucket < r.batch) bucket *= 2;
      ++routing[bucket][r.worker_gpcs];
    }
    std::cout << "--- " << ToString(kind) << ": batch -> partition routing "
              << "(row %) ---\n";
    Table t({"batch <=", "GPU(1)", "GPU(2)", "GPU(3)", "GPU(4)", "GPU(7)"});
    for (const auto& [bucket, dist] : routing) {
      double total = 0;
      for (const auto& [g, c] : dist) total += c;
      std::vector<std::string> row = {Table::Int(bucket)};
      for (int g : {1, 2, 3, 4, 7}) {
        const auto it = dist.find(g);
        row.push_back(Table::Num(
            it == dist.end() ? 0.0 : 100.0 * it->second / total, 0));
      }
      t.AddRow(row);
    }
    t.Print(std::cout);
    const auto stats = result.Stats(tb.sla_target());
    std::cout << "p95 " << Table::Num(stats.p95_latency_ms, 2)
              << " ms, violations "
              << Table::Num(100 * stats.sla_violation_rate, 2) << "%\n\n";
  }

  // Load sweep.
  std::cout << "--- load sweep (offered qps -> p95 ms) ---\n";
  Table sweep({"offered qps", "FIFS p95", "ELSA p95", "FIFS viol %",
               "ELSA viol %"});
  for (double f : {0.4, 0.6, 0.8, 0.9, 1.0}) {
    core::RunOptions ro;
    ro.rate_qps = f * capacity.qps;
    ro.num_queries = 8000;
    const auto stats = [&](core::SchedulerKind kind) {
      auto scheduler = tb.MakeScheduler(kind);
      return tb.Run(plan.instance_gpcs, *scheduler, ro).Stats(tb.sla_target());
    };
    const auto fifs = stats(core::SchedulerKind::kFifs);
    const auto elsa = stats(core::SchedulerKind::kElsa);
    sweep.AddRow({Table::Num(ro.rate_qps, 0),
                  Table::Num(fifs.p95_latency_ms, 2),
                  Table::Num(elsa.p95_latency_ms, 2),
                  Table::Num(100 * fifs.sla_violation_rate, 2),
                  Table::Num(100 * elsa.sla_violation_rate, 2)});
  }
  sweep.Print(std::cout);
  return 0;
}
