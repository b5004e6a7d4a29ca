// The stats oracle: a naive ServerStats builder, independent of
// sim::StatsAccumulator's pools, selection and merging.  It keeps every
// record, re-keys fleet records to global ids, models and workers by
// copying them into one vector, sorts, and reduces with std::map and
// Percentile (below) -- so equality with the library's order-free
// reduction, field by field with ==, checks the merge, the selection and
// the fleet-wide warmup cut at once.  ExpectIdenticalServerStats is the
// field-for-field comparison the tests share.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "fleet/cluster.h"
#include "sim/metrics.h"

namespace pe::testing {

// Exact percentile over retained samples, by linear interpolation between
// closest ranks: the p-th percentile of n sorted samples x is
// x[k] * (1 - f) + x[k + 1] * f with k + f = (p / 100) * (n - 1).
// Value() sorts lazily and returns 0 for an empty set.
class Percentile {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }

  // p in [0, 100].
  double Value(double p) const {
    if (samples_.empty()) return 0.0;
    EnsureSorted();
    assert(p >= 0.0 && p <= 100.0);
    if (samples_.size() == 1) return samples_.front();
    const double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= samples_.size()) return samples_.back();
    return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
  }
  double P50() const { return Value(50.0); }
  double P95() const { return Value(95.0); }
  double P99() const { return Value(99.0); }

  double Mean() const {
    if (samples_.empty()) return 0.0;
    double sum = 0.0;
    for (const double s : samples_) sum += s;
    return sum / static_cast<double>(samples_.size());
  }
  double Max() const {
    if (samples_.empty()) return 0.0;
    EnsureSorted();
    return samples_.back();
  }

  void Clear() {
    samples_.clear();
    sorted_ = true;
  }

 private:
  void EnsureSorted() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Stats of the records whose id is >= `cut`, by the conventions documented
// on sim::StatsAccumulator.
inline sim::ServerStats OracleStats(std::vector<sim::QueryRecord> records,
                                    SimTime sla_target, std::uint64_t cut) {
  std::sort(records.begin(), records.end(),
            [](const sim::QueryRecord& a, const sim::QueryRecord& b) {
              return a.id < b.id;
            });
  using Sum = unsigned __int128;
  struct PerModel {
    Percentile latency;
    Sum latency_sum = 0;
    std::size_t violations = 0;
    std::size_t swaps = 0;
  };
  sim::ServerStats stats;
  Percentile latency;
  Sum latency_sum = 0;
  Sum queue_delay_sum = 0;
  std::size_t violations = 0;
  SimTime begin = std::numeric_limits<SimTime>::max();
  SimTime end = std::numeric_limits<SimTime>::min();
  std::map<std::pair<int, int>, sim::WorkerStats> workers;
  std::map<int, PerModel> models;
  for (const sim::QueryRecord& r : records) {
    if (r.id < cut) continue;
    if (r.failed || r.shed) {
      if (r.failed) ++stats.failed;
      if (r.shed) ++stats.shed;
      continue;
    }
    ++stats.completed;
    latency.Add(TicksToMs(r.Latency()));
    latency_sum += static_cast<Sum>(r.Latency());
    queue_delay_sum += static_cast<Sum>(r.QueueDelay());
    if (r.Latency() > sla_target) ++violations;
    if (r.reconfig_stalls > 0) ++stats.reconfig_stalled;
    if (r.model_swap) ++stats.model_swaps;
    begin = std::min(begin, r.arrival);
    end = std::max(end, r.finished);
    sim::WorkerStats& w = workers[{r.worker, r.worker_gpcs}];
    w.index = r.worker;
    w.gpcs = r.worker_gpcs;
    w.busy_ticks += r.finished - r.started;
    ++w.queries;
    PerModel& m = models[r.model];
    m.latency.Add(TicksToMs(r.Latency()));
    m.latency_sum += static_cast<Sum>(r.Latency());
    if (r.Latency() > sla_target) ++m.violations;
    if (r.model_swap) ++m.swaps;
  }
  if (stats.completed == 0) return stats;

  const auto mean_ms = [](Sum ticks, std::size_t n) {
    return static_cast<double>(ticks) / static_cast<double>(kNsPerMs) /
           static_cast<double>(n);
  };
  const auto n = static_cast<double>(stats.completed);
  stats.mean_latency_ms = mean_ms(latency_sum, stats.completed);
  stats.mean_queue_delay_ms = mean_ms(queue_delay_sum, stats.completed);
  stats.p50_latency_ms = latency.P50();
  stats.p95_latency_ms = latency.P95();
  stats.p99_latency_ms = latency.P99();
  stats.max_latency_ms = latency.Max();
  stats.sla_violation_rate = static_cast<double>(violations) / n;
  const SimTime span = end - begin;
  if (span > 0) stats.achieved_qps = n / TicksToSec(span);
  double gpc_busy = 0.0;
  double gpc_total = 0.0;
  for (auto& [key, w] : workers) {
    if (span > 0) {
      w.utilization = std::min(1.0, static_cast<double>(w.busy_ticks) /
                                        static_cast<double>(span));
    }
    gpc_busy += w.utilization * w.gpcs;
    gpc_total += w.gpcs;
    stats.workers.push_back(w);
  }
  if (span > 0 && gpc_total > 0.0) {
    stats.mean_worker_utilization = gpc_busy / gpc_total;
  }
  for (const auto& [model, m] : models) {
    sim::ModelStats ms;
    ms.model = model;
    ms.completed = m.latency.count();
    ms.mean_latency_ms = mean_ms(m.latency_sum, ms.completed);
    ms.p95_latency_ms = m.latency.P95();
    ms.p99_latency_ms = m.latency.P99();
    ms.sla_violation_rate = static_cast<double>(m.violations) /
                            static_cast<double>(ms.completed);
    ms.swaps = m.swaps;
    stats.models.push_back(ms);
  }
  return stats;
}

// Fleet statistics by brute force: every server's records re-keyed to
// global query ids and model ids (and, for the aggregate, fleet-unique
// worker indices), one warmup cut over the trace size.
inline fleet::FleetStats OracleFleetStats(const fleet::FleetResult& result,
                                          SimTime sla_target,
                                          double warmup_fraction) {
  fleet::FleetStats stats;
  stats.num_servers = static_cast<int>(result.per_server.size());
  stats.fault = result.fault;
  std::vector<sim::QueryRecord> merged;
  std::vector<std::vector<sim::QueryRecord>> servers;
  for (std::size_t s = 0; s < result.per_server.size(); ++s) {
    const auto& records = result.per_server[s].records;
    stats.routed_per_server.push_back(records.size());
    stats.routed_queries += records.size();
    const auto ids = result.GlobalIds(static_cast<int>(s));
    std::vector<sim::QueryRecord> server;
    for (sim::QueryRecord r : records) {
      r.id = ids[static_cast<std::size_t>(r.id)];
      r.model = result.global_models[s][static_cast<std::size_t>(r.model)];
      server.push_back(r);
      r.worker += result.worker_base[s];
      merged.push_back(r);
    }
    servers.push_back(std::move(server));
  }
  const std::size_t population =
      result.fault.faulted ? result.fault.injected : stats.routed_queries;
  const auto cut = static_cast<std::uint64_t>(
      warmup_fraction * static_cast<double>(population));
  for (auto& server : servers) {
    stats.per_server.push_back(
        OracleStats(std::move(server), sla_target, cut));
  }
  stats.aggregate = OracleStats(std::move(merged), sla_target, cut);
  return stats;
}

// Field-for-field equality; EXPECT_EQ on doubles is bit-exact.
inline void ExpectIdenticalServerStats(const sim::ServerStats& fast,
                                       const sim::ServerStats& ref,
                                       const std::string& label) {
  EXPECT_EQ(fast.completed, ref.completed) << label;
  EXPECT_EQ(fast.mean_latency_ms, ref.mean_latency_ms) << label;
  EXPECT_EQ(fast.p50_latency_ms, ref.p50_latency_ms) << label;
  EXPECT_EQ(fast.p95_latency_ms, ref.p95_latency_ms) << label;
  EXPECT_EQ(fast.p99_latency_ms, ref.p99_latency_ms) << label;
  EXPECT_EQ(fast.max_latency_ms, ref.max_latency_ms) << label;
  EXPECT_EQ(fast.mean_queue_delay_ms, ref.mean_queue_delay_ms) << label;
  EXPECT_EQ(fast.sla_violation_rate, ref.sla_violation_rate) << label;
  EXPECT_EQ(fast.achieved_qps, ref.achieved_qps) << label;
  EXPECT_EQ(fast.mean_worker_utilization, ref.mean_worker_utilization)
      << label;
  EXPECT_EQ(fast.reconfig_stalled, ref.reconfig_stalled) << label;
  EXPECT_EQ(fast.model_swaps, ref.model_swaps) << label;
  EXPECT_EQ(fast.failed, ref.failed) << label;
  EXPECT_EQ(fast.shed, ref.shed) << label;

  ASSERT_EQ(fast.workers.size(), ref.workers.size()) << label;
  for (std::size_t w = 0; w < ref.workers.size(); ++w) {
    const std::string wl = label + " worker " + std::to_string(w);
    EXPECT_EQ(fast.workers[w].index, ref.workers[w].index) << wl;
    EXPECT_EQ(fast.workers[w].gpcs, ref.workers[w].gpcs) << wl;
    EXPECT_EQ(fast.workers[w].busy_ticks, ref.workers[w].busy_ticks) << wl;
    EXPECT_EQ(fast.workers[w].queries, ref.workers[w].queries) << wl;
    EXPECT_EQ(fast.workers[w].utilization, ref.workers[w].utilization) << wl;
  }

  ASSERT_EQ(fast.models.size(), ref.models.size()) << label;
  for (std::size_t m = 0; m < ref.models.size(); ++m) {
    const std::string ml = label + " model slice " + std::to_string(m);
    EXPECT_EQ(fast.models[m].model, ref.models[m].model) << ml;
    EXPECT_EQ(fast.models[m].completed, ref.models[m].completed) << ml;
    EXPECT_EQ(fast.models[m].mean_latency_ms, ref.models[m].mean_latency_ms)
        << ml;
    EXPECT_EQ(fast.models[m].p95_latency_ms, ref.models[m].p95_latency_ms)
        << ml;
    EXPECT_EQ(fast.models[m].p99_latency_ms, ref.models[m].p99_latency_ms)
        << ml;
    EXPECT_EQ(fast.models[m].sla_violation_rate,
              ref.models[m].sla_violation_rate)
        << ml;
    EXPECT_EQ(fast.models[m].swaps, ref.models[m].swaps) << ml;
  }
}

}  // namespace pe::testing
