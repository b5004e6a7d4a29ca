// Ablation: the frontend bottleneck of Section V.  The paper capped
// MobileNet at 24 GPCs because with 48 GPCs the 48x GPU(1) design became
// "completely bottlenecked by the frontend of the inference server".  This
// bench reproduces that observation: with a finite frontend, growing the
// backend from 24 to 48 GPCs stops helping; with an unconstrained frontend
// it scales.
#include "bench/bench_util.h"

#include "partition/homogeneous.h"

int main() {
  using namespace pe;
  bench::PrintHeader("Ablation: frontend bottleneck (Section V)",
                     "MobileNet, GPU(1) homogeneous server; latency-bounded "
                     "throughput");

  auto search = bench::DefaultSearch();

  core::Json points = core::Json::Array();
  Table t({"frontend", "GPCs", "instances", "qps", "scaling 24->48"});
  for (bool constrained : {false, true}) {
    double qps24 = 0.0;
    for (int gpcs : {24, 48}) {
      core::MixConfig config = core::Table1Config("mobilenet");
      if (constrained) {
        config.frontend.enabled = true;
        config.frontend.lanes = 1;
        config.frontend.cost_per_query = UsToTicks(400.0);
      }
      const core::MixTestbed tb(config);
      // Override the Table-I budget via a directly planned homogeneous
      // layout on an 8-GPU cluster.
      partition::HomogeneousPartitioner p(1);
      hw::Cluster cluster(8);
      const auto plan = p.Plan(cluster, gpcs);
      // GPU(1) servers cannot meet the strict SLA for the largest batches
      // even unloaded; this ablation is about *throughput scaling*, so use
      // a relaxed 3x tail bound.
      const double bound_ms = 3.0 * TicksToMs(tb.sla_target());
      const auto r = core::LatencyBoundedThroughput(
          tb, plan, core::SchedulerKind::kFifs, bound_ms, search);
      std::string scaling = "-";
      if (gpcs == 24) {
        qps24 = r.qps;
      } else if (qps24 > 0) {
        scaling = Table::Num(r.qps / qps24, 2) + "x";
      }
      t.AddRow({std::string(constrained ? "1 lane x 400us" : "unconstrained"),
                Table::Int(gpcs), Table::Int(plan.NumInstances()),
                Table::Num(r.qps, 0), scaling});
      core::Json point = core::ToJson(r);
      point.Set("frontend_constrained", constrained);
      point.Set("gpcs", gpcs);
      point.Set("instances", plan.NumInstances());
      points.Add(std::move(point));
    }
  }
  t.Print(std::cout);
  std::cout << "\nExpectation: ~2x scaling without a frontend cap; ~1x with "
               "it (the paper's reason for giving MobileNet only 24 GPCs).\n";

  core::Json data = core::Json::Object();
  data.Set("model", "mobilenet");
  data.Set("points", std::move(points));
  bench::WriteReport("ablation_frontend", std::move(data));
  return 0;
}
