// partition_explorer: inspects what the performance model and PARIS decide
// for each paper model.
//
// Prints, per model:
//   * the profiled utilization/latency grid (partition size x batch),
//   * the MaxBatch_knee per partition size,
//   * the PARIS derivation (segment demand ratios R_k, instance counts),
//   * the resulting heterogeneous server layout on the physical A100s.
//
// Usage: partition_explorer [model ...]   (default: all five paper models)
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/mix_runner.h"
#include "partition/paris.h"

namespace {

void Explore(const std::string& model_name) {
  using pe::Table;
  const pe::core::MixTestbed tb(pe::core::Table1Config(model_name));

  std::cout << "==== " << model_name << " ====\n";
  std::cout << "GPC budget " << tb.config().gpc_budget << " on "
            << tb.config().num_gpus << " GPUs; SLA target "
            << pe::TicksToMs(tb.sla_target()) << " ms\n\n";

  const auto& profile = tb.repertoire().profile(0);
  Table grid({"batch", "GPU(1) util", "GPU(2) util", "GPU(3) util",
              "GPU(4) util", "GPU(7) util", "GPU(1) ms", "GPU(7) ms"});
  for (int b : {1, 2, 4, 8, 16, 32, 64}) {
    grid.AddRow({Table::Int(b),
                 Table::Num(100 * profile.Utilization(1, b), 1),
                 Table::Num(100 * profile.Utilization(2, b), 1),
                 Table::Num(100 * profile.Utilization(3, b), 1),
                 Table::Num(100 * profile.Utilization(4, b), 1),
                 Table::Num(100 * profile.Utilization(7, b), 1),
                 Table::Num(1e3 * profile.LatencySec(1, b), 2),
                 Table::Num(1e3 * profile.LatencySec(7, b), 2)});
  }
  grid.Print(std::cout);

  const auto& dist = tb.batch_dist(0);
  pe::partition::ParisPartitioner paris(profile, dist, tb.config().paris);
  const auto derivation = paris.Derive(tb.config().gpc_budget);
  std::cout << "\nPARIS derivation:\n";
  Table d({"GPU size", "MaxBatch_knee", "R_k", "instances"});
  for (std::size_t k = 0; k < derivation.partition_sizes.size(); ++k) {
    d.AddRow({Table::Int(derivation.partition_sizes[k]),
              Table::Int(derivation.knees[k]),
              Table::Num(derivation.ratios[k], 4),
              Table::Int(derivation.instances[k])});
  }
  d.Print(std::cout);

  const auto plan = paris.Plan(tb.cluster(), tb.config().gpc_budget);
  std::cout << "\nPARIS plan: " << plan.Summary() << "\n";
  std::cout << "Placement:  " << plan.layout.ToString() << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> models;
  for (int i = 1; i < argc; ++i) models.emplace_back(argv[i]);
  if (models.empty()) {
    models = {"shufflenet", "mobilenet", "resnet", "bert", "conformer"};
  }
  for (const auto& m : models) Explore(m);
  return 0;
}
