// Section VI-C, "Different SLA targets": PARIS+ELSA's gains under SLA
// multipliers N in {1.2, 1.5, 2.0} (the paper reports N=2.0 giving on
// average 1.7x over GPU(7) and 1.1x over GPU(max) in latency-bounded
// throughput).  Reported per model plus the geometric mean.
#include "bench/bench_util.h"

#include <cmath>

int main() {
  using namespace pe;
  bench::PrintHeader("SLA sensitivity (Section VI-C)",
                     "PARIS+ELSA speedup over GPU(7)+FIFS and GPU(max)+FIFS "
                     "under different SLA multipliers N");

  auto search = bench::DefaultSearch();
  search.num_queries = bench::Queries(3000);

  Table t({"model", "N", "vs GPU(7)", "vs GPU(max)", "GPU(max)"});
  for (double n : {1.2, 1.5, 2.0}) {
    double log_sum7 = 0.0, log_summax = 0.0;
    int counted = 0;
    for (const std::string& model : bench::PaperModels()) {
      core::MixConfig config = core::Table1Config(model);
      config.sla_n = n;
      const core::MixTestbed tb(config);
      const double sla_ms = TicksToMs(tb.sla_target());

      const auto gpu7 = core::LatencyBoundedThroughput(
          tb, tb.PlanHomogeneous(7), core::SchedulerKind::kFifs, sla_ms,
          search);
      const auto best = core::BestHomogeneous(
          tb, core::SchedulerKind::kFifs, sla_ms, search);
      const auto ours = core::LatencyBoundedThroughput(
          tb, tb.PlanMixed().plan, core::SchedulerKind::kElsa, sla_ms, search);

      const double s7 = gpu7.qps > 0 ? ours.qps / gpu7.qps : 0.0;
      const double smax = best.qps > 0 ? ours.qps / best.qps : 0.0;
      if (s7 > 0 && smax > 0) {
        log_sum7 += std::log(s7);
        log_summax += std::log(smax);
        ++counted;
      }
      t.AddRow({model, Table::Num(n, 1), Table::Num(s7, 2),
                Table::Num(smax, 2),
                "GPU(" + std::to_string(best.partition_gpcs) + ")"});
    }
    if (counted > 0) {
      t.AddRow({"geomean", Table::Num(n, 1),
                Table::Num(std::exp(log_sum7 / counted), 2),
                Table::Num(std::exp(log_summax / counted), 2), ""});
    }
  }
  t.Print(std::cout);
  return 0;
}
