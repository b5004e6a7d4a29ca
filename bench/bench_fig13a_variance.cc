// Figure 13(a): sensitivity of the designs to the log-normal batch-size
// distribution variance (sigma in {0.3, 0.9, 1.8}), on ResNet.
//
// Paper expectation: with small variance the batch sizes concentrate and a
// well-chosen homogeneous design closes the gap; with large variance the
// heterogeneous PARIS+ELSA advantage over the best GPU(N) grows.
#include "bench/bench_util.h"

int main() {
  using namespace pe;
  bench::PrintHeader(
      "Figure 13(a): sensitivity to batch-size distribution variance",
      "ResNet; latency-bounded throughput normalized to GPU(7)+FIFS");

  auto search = bench::DefaultSearch();

  Table t({"design", "sigma=0.3", "sigma=0.9 (default)", "sigma=1.8"});
  std::vector<std::vector<std::string>> cells;

  bool first = true;
  for (double sigma : {0.3, 0.9, 1.8}) {
    core::MixConfig config = core::Table1Config("resnet");
    config.models[0].dist_sigma = sigma;
    const core::MixTestbed tb(config);
    const double sla_ms = TicksToMs(tb.sla_target());

    std::vector<bench::Design> designs;
    for (int size : {7, 3, 2, 1}) {
      designs.push_back({"GPU(" + std::to_string(size) + ")+FIFS",
                         tb.PlanHomogeneous(size),
                         core::SchedulerKind::kFifs});
    }
    const partition::PartitionPlan paris = tb.PlanMixed().plan;
    designs.push_back({"PARIS+FIFS", paris, core::SchedulerKind::kFifs});
    designs.push_back({"PARIS+ELSA", paris, core::SchedulerKind::kElsa});

    double base = 0.0;
    std::size_t row = 0;
    for (const auto& d : designs) {
      const auto r =
          core::LatencyBoundedThroughput(tb, d.plan, d.kind, sla_ms, search);
      if (d.label == "GPU(7)+FIFS") base = r.qps;
      if (first) cells.push_back({d.label});
      cells[row++].push_back(
          Table::Num(base > 0 ? r.qps / base : 0.0, 2) + " (" +
          Table::Num(r.qps, 0) + ")");
    }
    first = false;
  }
  for (auto& row : cells) t.AddRow(row);
  t.Print(std::cout);
  return 0;
}
