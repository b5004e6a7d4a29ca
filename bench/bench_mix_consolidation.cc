// Multi-model consolidation study (extension).
//
// A compute-heavy model (ResNet) and a lightweight one (MobileNet) share
// one p4d-style server at equal total GPCs under two provisioning styles:
//
//   * dedicated:     each model gets its share-derived slice of the GPC
//                    budget as its own PARIS layout and serves only its
//                    own traffic (no cross-model interference, but also
//                    no statistical multiplexing);
//   * consolidated:  the union of the same per-model layouts serves the
//                    full interleaved trace, paying a model-swap penalty
//                    whenever a partition starts a non-resident model --
//                    once with model-oblivious ELSA and once with the
//                    locality tie-break that steers queries to partitions
//                    already holding their model.
//
// The total GPC budget is identical in all rows, so the delta is purely
// scheduling/consolidation: multiplexing absorbs each model's bursts in
// the other's lulls, while swap penalties and cross-model queueing push
// the other way.
#include "bench/bench_util.h"

#include "core/mix_runner.h"

int main() {
  using namespace pe;
  bench::PrintHeader(
      "Mixed-model serving: dedicated vs consolidated at equal GPCs",
      "ResNet (60%) + MobileNet (40%), mixed-PARIS layouts, ELSA; "
      "model-swap penalty charged on resident-model changes");

  core::MixConfig mc;
  mc.models.push_back({"resnet", 0.6, 6.0, 0.9});
  mc.models.push_back({"mobilenet", 0.4, 4.0, 0.9});
  mc.swap_cost_us = 1000.0;  // ~1 ms weight reload per displaced model
  const core::MixTestbed tb(mc);
  const auto mixed = tb.PlanMixed();

  const double rate_qps = 400.0;
  const std::size_t num_queries = bench::Queries(16000);
  const std::uint64_t seed = 17;
  const auto trace = tb.GenerateMix(rate_qps, num_queries, seed);

  struct Row {
    std::string policy;
    std::string layout;
    sim::ServerStats stats;
  };
  std::vector<Row> rows;

  // Dedicated: each model's slice serves its own (re-numbered) traffic on
  // its own workers; merged records, with their trace ids restored (the
  // warmup cut is keyed by query id), give the fleet-level view.
  {
    std::vector<sim::QueryRecord> merged;
    std::string layout;
    for (int m = 0; m < tb.num_models(); ++m) {
      const auto& sizes = mixed.per_model_sizes[static_cast<std::size_t>(m)];
      // Model m's queries, ids dense from 0; trace_ids maps them back.
      std::vector<workload::Query> own;
      std::vector<std::uint64_t> trace_ids;
      for (workload::Query q : trace.queries()) {
        if (q.model_id != m) continue;
        trace_ids.push_back(q.id);
        q.id = own.size();
        own.push_back(q);
      }
      auto scheduler = tb.MakeScheduler(core::SchedulerKind::kElsa);
      const auto result = tb.Run(sizes, *scheduler,
                                 workload::QueryTrace(std::move(own)), seed + m);
      for (sim::QueryRecord r : result.records) {
        r.id = trace_ids[r.id];
        merged.push_back(r);
      }
      partition::PartitionPlan tmp;
      tmp.instance_gpcs = sizes;
      if (!layout.empty()) layout += " | ";
      layout += tb.repertoire().name(m) + ": " + tmp.Summary();
    }
    rows.push_back(
        {"dedicated", layout, sim::ComputeStats(merged, tb.sla_target())});
  }

  // Consolidated: the union layout serves the interleaved trace.
  const auto consolidated = [&](sched::ElsaParams params,
                                const std::string& label) {
    auto scheduler = tb.MakeScheduler(core::SchedulerKind::kElsa, params);
    const auto result =
        tb.Run(mixed.plan.instance_gpcs, *scheduler, trace, seed);
    rows.push_back({label, mixed.plan.Summary(),
                    result.Stats(tb.sla_target())});
  };
  consolidated(sched::ElsaParams{}, "consolidated");
  sched::ElsaParams local;
  local.locality_tie_sec = 0.002;  // 2 ms: roughly the swap cost
  consolidated(local, "consolidated+locality");

  Table t({"policy", "p99 ms", "p95 ms", "achieved qps", "viol. %",
           "swaps"});
  for (const auto& r : rows) {
    t.AddRow({r.policy, Table::Num(r.stats.p99_latency_ms, 2),
              Table::Num(r.stats.p95_latency_ms, 2),
              Table::Num(r.stats.achieved_qps, 1),
              Table::Num(100 * r.stats.sla_violation_rate, 2),
              Table::Int(static_cast<long long>(r.stats.model_swaps))});
  }
  t.Print(std::cout);
  std::cout << "\nLayouts (equal total GPCs, budget "
            << tb.config().gpc_budget << "):\n";
  for (const auto& r : rows) {
    std::cout << "  " << r.policy << ": " << r.layout << "\n";
  }

  core::Json policies = core::Json::Array();
  for (const auto& r : rows) {
    core::Json p = core::ToJson(r.stats);
    p.Set("policy", r.policy);
    p.Set("layout", r.layout);
    policies.Add(std::move(p));
  }
  core::Json data = core::Json::Object();
  core::Json models = core::Json::Array();
  for (std::size_t i = 0; i < mc.models.size(); ++i) {
    core::Json m = core::Json::Object();
    m.Set("model", mc.models[i].model);
    m.Set("share", mc.models[i].share);
    m.Set("budget_gpcs", mixed.budgets[i]);
    models.Add(std::move(m));
  }
  data.Set("mix", std::move(models));
  data.Set("offered_qps", rate_qps);
  data.Set("swap_cost_us", mc.swap_cost_us);
  data.Set("seed", seed);
  data.Set("policies", std::move(policies));
  bench::WriteReport("mix_consolidation", std::move(data));
  return 0;
}
