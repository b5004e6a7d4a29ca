// Micro-benchmarks (google-benchmark) for the hot paths of the simulator:
// roofline evaluation, profiling, scheduler decisions, PARIS derivation,
// MIG packing, and end-to-end simulated-query throughput.
#include <benchmark/benchmark.h>

#include "core/mix_runner.h"
#include "hw/cluster.h"
#include "partition/paris.h"
#include "perf/model_zoo.h"
#include "profile/profiler.h"
#include "sched/elsa.h"
#include "workload/trace.h"

namespace {

using namespace pe;

void BM_RooflineModelEval(benchmark::State& state) {
  const auto model = perf::BuildResNet50();
  perf::RooflineEngine engine;
  int batch = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Time(model, 3, batch));
    batch = batch % 32 + 1;
  }
}
BENCHMARK(BM_RooflineModelEval);

void BM_ProfilerFullGrid(benchmark::State& state) {
  const auto model = perf::BuildMobileNetV1();
  profile::Profiler profiler;
  const auto config = profile::ProfilerConfig::Default(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.Profile(model, config));
  }
}
BENCHMARK(BM_ProfilerFullGrid);

void BM_ElsaDecision(benchmark::State& state) {
  const auto n_workers = static_cast<std::size_t>(state.range(0));
  profile::ProfileTable table("toy", {1, 7}, {32});
  table.Set(1, 32, {10e-3, 0.9});
  table.Set(7, 32, {2e-3, 0.5});
  profile::ModelRepertoire repertoire;
  repertoire.Register("toy", table, [table](int gpcs, int batch) {
    return table.LatencySec(gpcs, batch);
  });
  sched::ElsaScheduler elsa(repertoire, MsToTicks(15.0));
  std::vector<sched::WorkerState> workers(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers[i].index = static_cast<int>(i);
    workers[i].gpcs = (i % 2) ? 7 : 1;
    workers[i].wait_ticks = static_cast<SimTime>(i) * MsToTicks(1.0);
  }
  workload::Query q;
  q.batch = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(elsa.OnQueryArrival(q, workers));
  }
}
BENCHMARK(BM_ElsaDecision)->Arg(8)->Arg(32)->Arg(56);

void BM_ParisDerive(benchmark::State& state) {
  profile::Profiler profiler;
  const auto table = profiler.Profile(perf::BuildResNet50(),
                                      profile::ProfilerConfig::Default(64));
  workload::LogNormalBatchDist dist(6.0, 0.9, 32);
  partition::ParisPartitioner paris(table, dist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(paris.Derive(48));
  }
}
BENCHMARK(BM_ParisDerive);

void BM_ClusterPack(benchmark::State& state) {
  hw::Cluster cluster(8);
  const std::vector<int> sizes = {7, 7, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.Pack(sizes));
  }
}
BENCHMARK(BM_ClusterPack);

void BM_EndToEndSimulatedQueries(benchmark::State& state) {
  const core::MixTestbed tb(core::Table1Config("resnet"));
  const auto plan = tb.PlanMixed().plan;
  core::RunOptions opt;
  opt.rate_qps = 500.0;
  opt.num_queries = 2000;
  for (auto _ : state) {
    auto scheduler = tb.MakeScheduler(core::SchedulerKind::kElsa);
    benchmark::DoNotOptimize(tb.Run(plan.instance_gpcs, *scheduler, opt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(opt.num_queries));
}
BENCHMARK(BM_EndToEndSimulatedQueries);

}  // namespace

BENCHMARK_MAIN();
