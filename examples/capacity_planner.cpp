// capacity_planner: answers the operator's question the paper's system
// implicitly poses -- "how many A100s do I need to serve this model at this
// load within SLA?"  For each GPU count, partitions with PARIS, schedules
// with ELSA, and reports the latency-bounded capacity; stops at the first
// count that covers the requested load.
//
// Usage: capacity_planner [model] [target_qps]   (default: bert 400)
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.h"
#include "core/experiment.h"
#include "partition/paris.h"

int main(int argc, char** argv) {
  using namespace pe;
  const std::string model = argc > 1 ? argv[1] : "bert";
  const double target_qps = argc > 2 ? std::atof(argv[2]) : 400.0;

  const core::MixTestbed tb(core::Table1Config(model));
  const double sla_ms = TicksToMs(tb.sla_target());

  std::cout << "Planning " << model << " capacity for "
            << Table::Num(target_qps, 0) << " qps at SLA "
            << Table::Num(sla_ms, 1) << " ms (p95)\n\n";

  const auto& profile = tb.repertoire().profile(0);
  const auto& dist = tb.batch_dist(0);
  partition::ParisPartitioner paris(profile, dist, tb.config().paris);
  core::SearchOptions search;
  search.num_queries = 4000;

  Table t({"A100s", "PARIS layout", "capacity qps", "covers target?"});
  int needed = -1;
  for (int gpus = 1; gpus <= 16; ++gpus) {
    hw::Cluster cluster(gpus);
    const auto plan = paris.Plan(cluster, cluster.total_gpcs());
    const auto r = core::LatencyBoundedThroughput(
        tb, plan, core::SchedulerKind::kElsa, sla_ms, search);
    const bool covers = r.qps >= target_qps;
    t.AddRow({Table::Int(gpus), plan.Summary(), Table::Num(r.qps, 0),
              covers ? "yes" : "no"});
    if (covers) {
      needed = gpus;
      break;
    }
  }
  t.Print(std::cout);
  if (needed > 0) {
    std::cout << "\n=> " << needed << "x A100 with PARIS+ELSA cover "
              << Table::Num(target_qps, 0) << " qps.\n";
  } else {
    std::cout << "\n=> target not reachable within 16 A100s; "
                 "consider relaxing the SLA.\n";
  }
  return 0;
}
