#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>

#include "common/thread_pool.h"

namespace pe::core {
namespace {

double ProbeP95(const MixTestbed& testbed, const partition::PartitionPlan& plan,
                SchedulerKind kind, double rate_qps,
                const SearchOptions& options, sched::ElsaParams elsa) {
  auto scheduler = testbed.MakeScheduler(kind, elsa);
  RunOptions run;
  run.rate_qps = rate_qps;
  run.num_queries = options.num_queries;
  run.seed = options.seed;
  const auto result = testbed.Run(plan.instance_gpcs, *scheduler, run);
  return result.Stats(testbed.sla_target()).p95_latency_ms;
}

}  // namespace

ThroughputResult LatencyBoundedThroughput(const MixTestbed& testbed,
                                          const partition::PartitionPlan& plan,
                                          SchedulerKind kind,
                                          double tail_bound_ms,
                                          const SearchOptions& options,
                                          sched::ElsaParams elsa) {
  // An empty probe has p95 0, and a NaN bound is never exceeded: either
  // would grow the bracket to max_rate_qps and report a cap never measured.
  if (options.num_queries == 0) {
    throw std::invalid_argument(
        "LatencyBoundedThroughput: num_queries must be >= 1");
  }
  if (!std::isfinite(tail_bound_ms) || tail_bound_ms <= 0.0) {
    throw std::invalid_argument(
        "LatencyBoundedThroughput: tail_bound_ms must be finite and > 0, "
        "got " + std::to_string(tail_bound_ms));
  }
  // Bracket: grow the offered rate geometrically until the bound breaks.
  double lo = 0.0;
  double hi = options.initial_rate_qps;
  double p95_lo = 0.0;
  for (;;) {
    const double p95 = ProbeP95(testbed, plan, kind, hi, options, elsa);
    if (p95 > tail_bound_ms) break;
    lo = hi;
    p95_lo = p95;
    hi *= 2.0;
    if (hi > options.max_rate_qps) {
      // Even the cap satisfies the bound; report the cap.
      return ThroughputResult{options.max_rate_qps, p95};
    }
  }
  if (lo == 0.0) {
    // The initial rate already violates the bound: search down instead.
    hi = options.initial_rate_qps;
    lo = hi / 1024.0;
    const double p95 = ProbeP95(testbed, plan, kind, lo, options, elsa);
    if (p95 > tail_bound_ms) {
      // Unachievable even at negligible load.
      return ThroughputResult{0.0, p95};
    }
    p95_lo = p95;
  }
  // Bisect [lo, hi].
  for (int i = 0; i < options.iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double p95 = ProbeP95(testbed, plan, kind, mid, options, elsa);
    if (p95 > tail_bound_ms) {
      hi = mid;
    } else {
      lo = mid;
      p95_lo = p95;
    }
  }
  return ThroughputResult{lo, p95_lo};
}

std::vector<RatePoint> TailLatencyCurve(
    const MixTestbed& testbed, const partition::PartitionPlan& plan,
    SchedulerKind kind, const std::vector<double>& load_fractions,
    double tail_bound_ms, const SearchOptions& options) {
  const ThroughputResult bound =
      LatencyBoundedThroughput(testbed, plan, kind, tail_bound_ms, options);
  // Every sweep point is an independent simulation at a rate known up
  // front, so the whole curve fans out across options.jobs threads.
  return ParallelMap(
      load_fractions.size(), options.jobs, [&](std::size_t i) {
        const double rate = std::max(1e-3, load_fractions[i] * bound.qps);
        auto scheduler = testbed.MakeScheduler(kind);
        RunOptions run;
        run.rate_qps = rate;
        run.num_queries = options.num_queries;
        run.seed = options.seed;
        const auto result = testbed.Run(plan.instance_gpcs, *scheduler, run);
        const auto stats = result.Stats(testbed.sla_target());
        RatePoint p;
        p.offered_qps = rate;
        p.achieved_qps = stats.achieved_qps;
        p.p95_ms = stats.p95_latency_ms;
        p.mean_ms = stats.mean_latency_ms;
        p.violation_rate = stats.sla_violation_rate;
        p.utilization = stats.mean_worker_utilization;
        return p;
      });
}

HomogeneousChoice BestHomogeneous(const MixTestbed& testbed, SchedulerKind kind,
                                  double tail_bound_ms,
                                  const SearchOptions& options) {
  const auto results = ParallelMap(
      std::size(kHomogeneousSizes), options.jobs, [&](std::size_t i) {
        const auto plan = testbed.PlanHomogeneous(kHomogeneousSizes[i]);
        return LatencyBoundedThroughput(testbed, plan, kind, tail_bound_ms,
                                        options);
      });
  // Scan in candidate order so ties resolve exactly as the serial loop did
  // (first strictly-greater wins).
  HomogeneousChoice best;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].qps > best.qps) {
      best.qps = results[i].qps;
      best.partition_gpcs = kHomogeneousSizes[i];
    }
  }
  return best;
}

std::vector<ThroughputResult> LatencyBoundedThroughputBatch(
    const MixTestbed& testbed, const std::vector<ProbeSpec>& specs,
    double tail_bound_ms, const SearchOptions& options) {
  return ParallelMap(specs.size(), options.jobs, [&](std::size_t i) {
    return LatencyBoundedThroughput(testbed, specs[i].plan, specs[i].kind,
                                    tail_bound_ms, options, specs[i].elsa);
  });
}

}  // namespace pe::core
