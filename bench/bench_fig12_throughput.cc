// Figure 12: latency-bounded throughput of all eight design points,
// normalized to GPU(7)+FIFS, per model.
//
// Paper expectations (shape, not absolute): no homogeneous GPU(N) wins
// universally; PARIS+ELSA is best or tied-best everywhere; ELSA lifts both
// Random and PARIS partitions; BERT favors large partitions (GPU(max) =
// GPU(7)) while the lightweight models favor small/medium ones.
#include "bench/bench_util.h"

int main() {
  using namespace pe;
  bench::PrintHeader(
      "Figure 12: latency-bounded throughput (normalized to GPU(7)+FIFS)",
      "absolute qps in parentheses; p95 bound = SLA target");

  auto search = bench::DefaultSearch();

  Table t({"design", "shufflenet", "mobilenet", "resnet", "bert",
           "conformer"});
  std::vector<std::vector<std::string>> cells;
  core::Json models = core::Json::Array();

  bool first_model = true;
  for (const std::string& model : bench::PaperModels()) {
    const core::MixTestbed tb(core::Table1Config(model));
    const double sla_ms = TicksToMs(tb.sla_target());
    const auto designs = bench::PaperDesigns(tb);

    // All eight designs of one model are independent probes; fan them out
    // through the batch entry point instead of a serial loop.
    std::vector<core::ProbeSpec> specs;
    specs.reserve(designs.size());
    for (const auto& d : designs) {
      specs.push_back({d.label, d.plan, d.kind, sched::ElsaParams{}});
    }
    const auto results =
        core::LatencyBoundedThroughputBatch(tb, specs, sla_ms, search);

    double base_qps = 0.0;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      if (designs[i].label == "GPU(7)+FIFS") base_qps = results[i].qps;
    }

    core::Json design_results = core::Json::Array();
    for (std::size_t i = 0; i < designs.size(); ++i) {
      if (first_model) cells.push_back({designs[i].label});
      const double norm = base_qps > 0 ? results[i].qps / base_qps : 0.0;
      cells[i].push_back(Table::Num(norm, 2) + " (" +
                         Table::Num(results[i].qps, 0) + ")");
      core::Json d = core::ToJson(results[i]);
      d.Set("design", designs[i].label);
      d.Set("normalized", norm);
      design_results.Add(std::move(d));
    }
    first_model = false;

    core::Json m = core::Json::Object();
    m.Set("model", model);
    m.Set("sla_ms", sla_ms);
    m.Set("baseline", "GPU(7)+FIFS");
    m.Set("designs", std::move(design_results));
    models.Add(std::move(m));
  }
  for (auto& row : cells) t.AddRow(row);
  t.Print(std::cout);
  std::cout << "\nNote: designs whose p95 exceeds the SLA even when idle "
               "(small homogeneous partitions on heavy models) report 0.\n";

  core::Json data = core::Json::Object();
  data.Set("models", std::move(models));
  bench::WriteReport("fig12_throughput", std::move(data));
  return 0;
}
