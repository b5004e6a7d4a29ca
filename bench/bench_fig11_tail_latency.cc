// Figure 11: p95 tail latency vs latency-bounded throughput for the four
// headline designs -- GPU(7)+FIFS, GPU(max)+FIFS, PARIS+FIFS, PARIS+ELSA --
// for each of the five models.  Each design is swept across offered-load
// fractions of its own latency-bounded throughput; the SLA line is the
// vertical line of the paper's plots.
#include "bench/bench_util.h"

int main() {
  using namespace pe;
  bench::PrintHeader("Figure 11: p95 tail latency vs throughput",
                     "one block per model; (x, y) = (achieved qps, p95 ms)");

  const std::vector<double> fractions = {0.5, 0.7, 0.85, 0.95, 1.0, 1.1};
  auto search = bench::DefaultSearch();
  core::Json models = core::Json::Array();

  for (const std::string& model : bench::PaperModels()) {
    const core::MixTestbed tb(core::Table1Config(model));
    const double sla_ms = TicksToMs(tb.sla_target());

    const auto gpu_max = core::BestHomogeneous(
        tb, core::SchedulerKind::kFifs, sla_ms, search);

    struct Case {
      std::string label;
      partition::PartitionPlan plan;
      core::SchedulerKind kind;
    };
    std::vector<Case> cases;
    cases.push_back(
        {"GPU(7)+FIFS", tb.PlanHomogeneous(7), core::SchedulerKind::kFifs});
    if (gpu_max.partition_gpcs != 7 && gpu_max.partition_gpcs != 0) {
      cases.push_back({"GPU(max)=GPU(" +
                           std::to_string(gpu_max.partition_gpcs) + ")+FIFS",
                       tb.PlanHomogeneous(gpu_max.partition_gpcs),
                       core::SchedulerKind::kFifs});
    }
    const partition::PartitionPlan paris = tb.PlanMixed().plan;
    cases.push_back({"PARIS+FIFS", paris, core::SchedulerKind::kFifs});
    cases.push_back({"PARIS+ELSA", paris, core::SchedulerKind::kElsa});

    std::cout << "--- " << model << " (SLA " << Table::Num(sla_ms, 1)
              << " ms) ---\n";
    core::Json designs = core::Json::Array();
    Table t({"design", "offered qps", "achieved qps", "p95 ms", "viol. %",
             "util %"});
    for (const auto& c : cases) {
      const auto curve = core::TailLatencyCurve(tb, c.plan, c.kind, fractions,
                                                sla_ms, search);
      for (const auto& p : curve) {
        t.AddRow({c.label, Table::Num(p.offered_qps, 0),
                  Table::Num(p.achieved_qps, 0), Table::Num(p.p95_ms, 2),
                  Table::Num(100 * p.violation_rate, 1),
                  Table::Num(100 * p.utilization, 1)});
      }
      core::Json d = core::Json::Object();
      d.Set("design", c.label);
      d.Set("curve", core::ToJson(curve));
      designs.Add(std::move(d));
    }
    t.Print(std::cout);
    std::cout << '\n';

    core::Json m = core::Json::Object();
    m.Set("model", model);
    m.Set("sla_ms", sla_ms);
    m.Set("gpu_max", core::ToJson(gpu_max));
    m.Set("designs", std::move(designs));
    models.Add(std::move(m));
  }

  core::Json data = core::Json::Object();
  data.Set("load_fractions", [&] {
    core::Json arr = core::Json::Array();
    for (double f : fractions) arr.Add(f);
    return arr;
  }());
  data.Set("models", std::move(models));
  bench::WriteReport("fig11_tail_latency", std::move(data));
  return 0;
}
