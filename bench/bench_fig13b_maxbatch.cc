// Figure 13(b): sensitivity to the maximum batch size of the distribution
// (16 / 32 / 64), for all five models.  Throughput normalized to
// GPU(max)+FIFS per (model, max batch), as in the paper.
//
// Paper expectation: PARIS+ELSA's advantage is robust across max batch.
#include "bench/bench_util.h"

int main() {
  using namespace pe;
  bench::PrintHeader(
      "Figure 13(b): sensitivity to maximum batch size",
      "normalized to GPU(max)+FIFS per (model, max batch) pair");

  auto search = bench::DefaultSearch();
  // 15 (model, max-batch) pairs: keep each lean.
  search.num_queries = bench::Queries(3000);

  Table t({"model", "max batch", "GPU(max)+FIFS", "PARIS+FIFS",
           "PARIS+ELSA"});
  for (const std::string& model : bench::PaperModels()) {
    for (int max_batch : {16, 32, 64}) {
      core::MixConfig config = core::Table1Config(model);
      config.max_batch = max_batch;
      const core::MixTestbed tb(config);
      const double sla_ms = TicksToMs(tb.sla_target());

      const auto best = core::BestHomogeneous(
          tb, core::SchedulerKind::kFifs, sla_ms, search);
      const double base = best.qps;
      const auto paris = tb.PlanMixed().plan;
      const auto pf = core::LatencyBoundedThroughput(
          tb, paris, core::SchedulerKind::kFifs, sla_ms, search);
      const auto pe_ = core::LatencyBoundedThroughput(
          tb, paris, core::SchedulerKind::kElsa, sla_ms, search);

      auto norm = [&](double qps) {
        return base > 0 ? Table::Num(qps / base, 2) : std::string("n/a");
      };
      t.AddRow({model, Table::Int(max_batch),
                "1.00 [GPU(" + std::to_string(best.partition_gpcs) + "), " +
                    Table::Num(base, 0) + " qps]",
                norm(pf.qps), norm(pe_.qps)});
    }
  }
  t.Print(std::cout);
  return 0;
}
