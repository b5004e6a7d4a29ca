// Table I: homogeneous vs heterogeneous GPU partition configurations per
// model -- instance counts and GPC totals for GPU(1,2,3,7), Random, and
// PARIS, plus the number of physical A100s.
#include "bench/bench_util.h"

int main() {
  using namespace pe;
  bench::PrintHeader("Table I: server configurations per model",
                     "counts as '#instances (#GPCs)'; PARIS/Random show "
                     "their heterogeneous layout");

  Table t({"design", "shufflenet", "mobilenet", "resnet", "bert",
           "conformer"});
  std::vector<std::vector<std::string>> rows(7);
  rows[0] = {"GPU(1)"};
  rows[1] = {"GPU(2)"};
  rows[2] = {"GPU(3)"};
  rows[3] = {"GPU(7)"};
  rows[4] = {"Random"};
  rows[5] = {"PARIS"};
  rows[6] = {"# of A100"};

  core::Json models = core::Json::Array();
  for (const std::string& model : bench::PaperModels()) {
    const core::MixTestbed tb(core::Table1Config(model));
    core::Json homogeneous = core::Json::Array();
    int r = 0;
    for (int size : {1, 2, 3, 7}) {
      const auto plan = tb.PlanHomogeneous(size);
      rows[static_cast<std::size_t>(r++)].push_back(
          std::to_string(plan.NumInstances()) + " (" +
          std::to_string(plan.TotalGpcs()) + ")");
      core::Json h = core::Json::Object();
      h.Set("partition_gpcs", size);
      h.Set("instances", static_cast<std::int64_t>(plan.NumInstances()));
      h.Set("total_gpcs", static_cast<std::int64_t>(plan.TotalGpcs()));
      homogeneous.Add(std::move(h));
    }
    const auto random_plan = tb.PlanRandom();
    const auto paris_plan = tb.PlanMixed().plan;
    rows[4].push_back(random_plan.Summary());
    rows[5].push_back(paris_plan.Summary());
    rows[6].push_back(std::to_string(tb.config().num_gpus));

    core::Json m = core::Json::Object();
    m.Set("model", model);
    m.Set("homogeneous", std::move(homogeneous));
    m.Set("random", random_plan.Summary());
    m.Set("paris", paris_plan.Summary());
    m.Set("num_gpus", tb.config().num_gpus);
    models.Add(std::move(m));
  }
  for (auto& row : rows) t.AddRow(row);
  t.Print(std::cout);

  core::Json data = core::Json::Object();
  data.Set("models", std::move(models));
  bench::WriteReport("table1_configs", std::move(data));
  return 0;
}
