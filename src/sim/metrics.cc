#include "sim/metrics.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace pe::sim {

namespace {

// TickPercentileMs's closest-rank interpolation over a pool of latency
// ticks, by selection instead of a sort: nth_element places the same
// order statistics a sort would, and TicksToMs is monotone, so every value
// is bit-identical to interpolating the sorted latencies in milliseconds.
// Ranks must be queried in non-decreasing order: each lookup partitions
// the pool at the ranks it touches, and the (lo, lo + 1) pairs it selects
// are exactly the positions a later, larger rank may re-read.
class TickRanks {
 public:
  explicit TickRanks(std::vector<SimTime>& pool) : v_(pool) {}

  double Ms(double p) {
    if (v_.empty()) return 0.0;
    if (v_.size() == 1) return TicksToMs(v_.front());
    const double rank = (p / 100.0) * static_cast<double>(v_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= v_.size()) return TicksToMs(At(v_.size() - 1));
    return TicksToMs(At(lo)) * (1.0 - frac) + TicksToMs(At(lo + 1)) * frac;
  }

  double MaxMs() { return v_.empty() ? 0.0 : TicksToMs(At(v_.size() - 1)); }

 private:
  // k-th smallest; v_[0, done_) holds the done_ smallest ticks.
  SimTime At(std::size_t k) {
    if (k >= done_) {
      std::nth_element(v_.begin() + static_cast<std::ptrdiff_t>(done_),
                       v_.begin() + static_cast<std::ptrdiff_t>(k), v_.end());
      done_ = k + 1;
    }
    return v_[k];
  }

  std::vector<SimTime>& v_;
  std::size_t done_ = 0;
};

template <typename Sum>
double MeanMs(Sum ticks, std::size_t n) {
  return static_cast<double>(ticks) / static_cast<double>(kNsPerMs) /
         static_cast<double>(n);
}

}  // namespace

double TickPercentileMs(std::vector<SimTime>& ticks, double p) {
  return TickRanks(ticks).Ms(p);
}

std::uint64_t WarmupCut(double warmup_fraction, std::size_t n) {
  assert(warmup_fraction >= 0.0 && warmup_fraction < 1.0);
  return static_cast<std::uint64_t>(warmup_fraction * static_cast<double>(n));
}

WorkerStats& StatsAccumulator::Worker(int index, int gpcs) {
  if (index < 0) {
    throw std::invalid_argument(
        "StatsAccumulator: completed record names no worker");
  }
  const auto i = static_cast<std::size_t>(index);
  if (i >= workers_.size()) workers_.resize(i + 1);
  for (WorkerStats& w : workers_[i]) {
    if (w.gpcs == gpcs) return w;
  }
  WorkerStats& w = workers_[i].emplace_back();
  w.index = index;
  w.gpcs = gpcs;
  return w;
}

StatsAccumulator::Model& StatsAccumulator::ModelAt(int model) {
  if (model < 0) {
    throw std::invalid_argument("StatsAccumulator: negative model id");
  }
  const auto m = static_cast<std::size_t>(model);
  if (m >= models_.size()) models_.resize(m + 1);
  return models_[m];
}

void StatsAccumulator::Add(const QueryRecord& r, int model) {
  if (r.failed || r.shed) {
    // Casualties never completed; their timestamps mark the failure/shed
    // instant and stay out of every latency figure.
    if (r.failed) ++failed_;
    if (r.shed) ++shed_;
    return;
  }
  Model& m = ModelAt(model);
  const SimTime latency = r.Latency();
  ++m.completed;
  m.latency_sum += static_cast<TickSum>(latency);
  m.latency.push_back(latency);
  if (latency > sla_target_) ++m.violations;
  if (r.model_swap) ++m.swaps;
  if (r.reconfig_stalls > 0) ++reconfig_stalled_;
  queue_delay_sum_ += static_cast<TickSum>(r.QueueDelay());
  min_arrival_ = std::min(min_arrival_, r.arrival);
  max_finish_ = std::max(max_finish_, r.finished);
  WorkerStats& w = Worker(r.worker, r.worker_gpcs);
  w.busy_ticks += r.finished - r.started;
  ++w.queries;
}

void StatsAccumulator::Merge(StatsAccumulator&& other, int worker_base) {
  assert(other.sla_target_ == sla_target_);
  failed_ += other.failed_;
  shed_ += other.shed_;
  reconfig_stalled_ += other.reconfig_stalled_;
  queue_delay_sum_ += other.queue_delay_sum_;
  min_arrival_ = std::min(min_arrival_, other.min_arrival_);
  max_finish_ = std::max(max_finish_, other.max_finish_);
  for (std::size_t id = 0; id < other.models_.size(); ++id) {
    Model& from = other.models_[id];
    if (from.completed == 0) continue;
    Model& to = ModelAt(static_cast<int>(id));
    to.completed += from.completed;
    to.violations += from.violations;
    to.swaps += from.swaps;
    to.latency_sum += from.latency_sum;
    to.latency.insert(to.latency.end(), from.latency.begin(),
                      from.latency.end());
  }
  for (const auto& variants : other.workers_) {
    for (const WorkerStats& from : variants) {
      WorkerStats& to = Worker(from.index + worker_base, from.gpcs);
      to.busy_ticks += from.busy_ticks;
      to.queries += from.queries;
    }
  }
  other = StatsAccumulator(other.sla_target_);
}

ServerStats StatsAccumulator::Finish() {
  ServerStats stats;
  stats.failed = failed_;
  stats.shed = shed_;
  std::size_t violations = 0;
  TickSum latency_sum = 0;
  std::vector<SimTime>* sole_pool = nullptr;
  int present = 0;
  for (Model& m : models_) {
    if (m.completed == 0) continue;
    stats.completed += m.completed;
    stats.model_swaps += m.swaps;
    violations += m.violations;
    latency_sum += m.latency_sum;
    sole_pool = &m.latency;
    ++present;
  }
  if (stats.completed == 0) return stats;

  const auto n = static_cast<double>(stats.completed);
  stats.mean_latency_ms = MeanMs(latency_sum, stats.completed);
  stats.mean_queue_delay_ms = MeanMs(queue_delay_sum_, stats.completed);
  stats.sla_violation_rate = static_cast<double>(violations) / n;
  stats.reconfig_stalled = reconfig_stalled_;

  // One model: its pool is the aggregate pool.  Several: the aggregate
  // percentiles select over the union.
  std::vector<SimTime> merged;
  if (present > 1) {
    merged.reserve(stats.completed);
    for (const Model& m : models_) {
      merged.insert(merged.end(), m.latency.begin(), m.latency.end());
    }
  }
  {
    TickRanks ranks(present > 1 ? merged : *sole_pool);
    stats.p50_latency_ms = ranks.Ms(50.0);
    stats.p95_latency_ms = ranks.Ms(95.0);
    stats.p99_latency_ms = ranks.Ms(99.0);
    stats.max_latency_ms = ranks.MaxMs();
  }
  for (std::size_t id = 0; id < models_.size(); ++id) {
    Model& m = models_[id];
    if (m.completed == 0) continue;
    ModelStats ms;
    ms.model = static_cast<int>(id);
    ms.completed = m.completed;
    ms.mean_latency_ms = MeanMs(m.latency_sum, m.completed);
    if (present > 1) {
      TickRanks ranks(m.latency);
      ms.p95_latency_ms = ranks.Ms(95.0);
      ms.p99_latency_ms = ranks.Ms(99.0);
    } else {
      ms.p95_latency_ms = stats.p95_latency_ms;
      ms.p99_latency_ms = stats.p99_latency_ms;
    }
    ms.sla_violation_rate = static_cast<double>(m.violations) /
                            static_cast<double>(m.completed);
    ms.swaps = m.swaps;
    stats.models.push_back(ms);
  }

  // A zero-length measurement span (all completions at one instant, e.g.
  // a single record or a reconfig-dominated epoch slice) leaves the
  // rate/utilization metrics at zero instead of dividing by it.
  const SimTime span = max_finish_ - min_arrival_;
  if (span > 0) stats.achieved_qps = n / TicksToSec(span);
  double gpc_busy = 0.0;
  double gpc_total = 0.0;
  for (auto& variants : workers_) {
    std::sort(variants.begin(), variants.end(),
              [](const WorkerStats& a, const WorkerStats& b) {
                return a.gpcs < b.gpcs;
              });
    for (WorkerStats w : variants) {
      if (span > 0) {
        w.utilization = std::min(1.0, static_cast<double>(w.busy_ticks) /
                                          static_cast<double>(span));
      }
      gpc_busy += w.utilization * w.gpcs;
      gpc_total += w.gpcs;
      stats.workers.push_back(w);
    }
  }
  if (span > 0 && gpc_total > 0.0) {
    stats.mean_worker_utilization = gpc_busy / gpc_total;
  }
  return stats;
}

ServerStats ComputeStats(std::span<const QueryRecord> records,
                         SimTime sla_target, double warmup_fraction) {
  const std::uint64_t cut = WarmupCut(warmup_fraction, records.size());
  StatsAccumulator acc(sla_target);
  for (const QueryRecord& r : records) {
    if (r.id >= cut) acc.Add(r);
  }
  return acc.Finish();
}

}  // namespace pe::sim
