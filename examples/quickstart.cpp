// quickstart: the smallest end-to-end use of the library.
//
// Builds a ResNet inference testbed with the paper's default workload
// (Poisson arrivals, log-normal batch sizes, max batch 32), partitions the
// 8xA100 cluster with PARIS, schedules with ELSA, and prints the serving
// statistics next to the best homogeneous baseline (GPU(7) + FIFS).
//
// Usage: quickstart [model] [rate_qps]
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.h"
#include "core/experiment.h"

int main(int argc, char** argv) {
  using namespace pe;

  const std::string model = argc > 1 ? argv[1] : "resnet";
  const core::MixTestbed tb(core::Table1Config(model));

  const double rate_qps = argc > 2 ? std::atof(argv[2]) : 0.0;

  std::cout << "Model: " << model << "  |  SLA target: "
            << TicksToMs(tb.sla_target()) << " ms  |  cluster: "
            << tb.config().num_gpus << "x A100 ("
            << tb.config().gpc_budget << " GPCs for PARIS)\n\n";

  const auto paris = tb.PlanMixed().plan;
  const auto gpu7 = tb.PlanHomogeneous(7);
  std::cout << "PARIS plan:  " << paris.Summary() << "\n";
  std::cout << "Baseline:    " << gpu7.Summary() << "\n\n";

  // Pick a load level: explicit from argv, otherwise 85% of the baseline's
  // latency-bounded throughput so both designs operate in a sane regime.
  double rate = rate_qps;
  if (rate <= 0.0) {
    const auto bound = core::LatencyBoundedThroughput(
        tb, gpu7, core::SchedulerKind::kFifs, TicksToMs(tb.sla_target()));
    rate = 0.85 * bound.qps;
    std::cout << "Auto-selected offered load: " << Table::Num(rate, 1)
              << " qps (85% of GPU(7)+FIFS capacity)\n\n";
  }

  core::RunOptions run;
  run.rate_qps = rate;
  run.num_queries = 20000;

  Table table({"design", "p95 (ms)", "mean (ms)", "SLA viol. %",
               "achieved qps", "GPU util %"});
  struct Case {
    const char* label;
    const pe::partition::PartitionPlan* plan;
    core::SchedulerKind kind;
  };
  const Case cases[] = {
      {"GPU(7)+FIFS", &gpu7, core::SchedulerKind::kFifs},
      {"PARIS+FIFS", &paris, core::SchedulerKind::kFifs},
      {"PARIS+ELSA", &paris, core::SchedulerKind::kElsa},
  };
  for (const auto& c : cases) {
    auto scheduler = tb.MakeScheduler(c.kind);
    const auto result = tb.Run(c.plan->instance_gpcs, *scheduler, run);
    const auto stats = result.Stats(tb.sla_target());
    table.AddRow({c.label, Table::Num(stats.p95_latency_ms, 2),
                  Table::Num(stats.mean_latency_ms, 2),
                  Table::Num(100 * stats.sla_violation_rate, 2),
                  Table::Num(stats.achieved_qps, 1),
                  Table::Num(100 * stats.mean_worker_utilization, 1)});
  }
  table.Print(std::cout);
  return 0;
}
