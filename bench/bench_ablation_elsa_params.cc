// Ablation: the alpha/beta tuning knobs of ELSA's SLA-slack predictor
// (Eq. 2).  The paper introduces them as configurable but does not sweep
// them; this bench maps the design space on ResNet's PARIS server, plus
// the two extra baselines (JSQ, GreedyFastest = ELSA without Step A) that
// isolate the contribution of each ELSA component.
#include "bench/bench_util.h"

int main() {
  using namespace pe;
  bench::PrintHeader("Ablation: ELSA alpha/beta and scheduler components",
                     "ResNet, PARIS partitioning, fixed offered load = 90% "
                     "of PARIS+ELSA(1,1) capacity");

  const core::MixTestbed tb(core::Table1Config("resnet"));
  const double sla_ms = TicksToMs(tb.sla_target());
  const auto plan = tb.PlanMixed().plan;
  auto search = bench::DefaultSearch();

  const auto nominal = core::LatencyBoundedThroughput(
      tb, plan, core::SchedulerKind::kElsa, sla_ms, search);
  const double rate = 0.9 * nominal.qps;
  std::cout << "PARIS+ELSA(alpha=1,beta=1) capacity: "
            << Table::Num(nominal.qps, 0) << " qps; probing at "
            << Table::Num(rate, 0) << " qps\n\n";

  core::RunOptions opt;
  opt.rate_qps = rate;
  opt.num_queries = bench::Queries(8000);

  core::Json points = core::Json::Array();
  auto add_point = [&points](const std::string& scheduler, double alpha,
                             double beta, const sim::ServerStats& stats) {
    core::Json p = core::ToJson(stats);
    p.Set("scheduler", scheduler);
    if (alpha > 0) {
      p.Set("alpha", alpha);
      p.Set("beta", beta);
    }
    points.Add(std::move(p));
  };

  Table t({"scheduler", "alpha", "beta", "p95 ms", "viol. %", "util %"});
  for (double alpha : {0.5, 1.0, 1.5, 2.0}) {
    for (double beta : {0.5, 1.0, 2.0}) {
      sched::ElsaParams params;
      params.alpha = alpha;
      params.beta = beta;
      auto scheduler = tb.MakeScheduler(core::SchedulerKind::kElsa, params);
      const auto stats =
          tb.Run(plan.instance_gpcs, *scheduler, opt).Stats(tb.sla_target());
      t.AddRow({"ELSA", Table::Num(alpha, 1), Table::Num(beta, 1),
                Table::Num(stats.p95_latency_ms, 2),
                Table::Num(100 * stats.sla_violation_rate, 2),
                Table::Num(100 * stats.mean_worker_utilization, 1)});
      add_point("ELSA", alpha, beta, stats);
    }
  }
  for (auto kind : {core::SchedulerKind::kGreedyFastest,
                    core::SchedulerKind::kJsq, core::SchedulerKind::kFifs}) {
    auto scheduler = tb.MakeScheduler(kind);
    const auto stats =
        tb.Run(plan.instance_gpcs, *scheduler, opt).Stats(tb.sla_target());
    t.AddRow({ToString(kind), "-", "-",
              Table::Num(stats.p95_latency_ms, 2),
              Table::Num(100 * stats.sla_violation_rate, 2),
              Table::Num(100 * stats.mean_worker_utilization, 1)});
    add_point(ToString(kind), /*alpha=*/0.0, /*beta=*/0.0, stats);
  }
  t.Print(std::cout);
  std::cout << "\nGreedyFastest = ELSA Step B only (no small-first slack "
               "rule); JSQ ignores the query's own cost; FIFS ignores "
               "heterogeneity entirely.\n";

  core::Json data = core::Json::Object();
  data.Set("model", tb.config().models[0].model);
  data.Set("sla_ms", sla_ms);
  data.Set("offered_qps", rate);
  data.Set("points", std::move(points));
  bench::WriteReport("ablation_elsa_params", std::move(data));
  return 0;
}
