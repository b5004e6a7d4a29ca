#include "sim/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

namespace pe::sim {

namespace {

// A selection's histogram has at most 2^kBucketBits buckets.
constexpr int kBucketBits = 12;

// TickPercentileMs's closest-rank interpolation at each of `ps`, written
// to `out`, over the union of `pools`, by bucket selection instead of a
// sort.  One pass finds the extremes; a second counts the ticks per bucket
// of a histogram of at most 2^kBucketBits equal power-of-two-wide buckets
// over [min, max], each tick's offset from min formed in unsigned
// arithmetic (so any two SimTime values have one); the counts locate the
// bucket and in-bucket rank of every rank the interpolation reads; a
// third pass gathers just those buckets' ticks, which are sorted.  So each
// rank reads the tick a sort would put there, and TicksToMs is monotone:
// every value is bit-identical to interpolating the sorted latencies in
// milliseconds.
void PercentilesMs(std::span<const std::span<const SimTime>> pools,
                   std::span<const double> ps, std::span<double> out) {
  assert(ps.size() == out.size());
  std::size_t n = 0;
  SimTime lo = std::numeric_limits<SimTime>::max();
  SimTime hi = std::numeric_limits<SimTime>::min();
  for (const std::span<const SimTime> pool : pools) {
    n += pool.size();
    for (const SimTime t : pool) {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  }
  if (n <= 1) {
    // Empty: 0.  One tick: every percentile is that tick.
    for (double& v : out) v = n == 0 ? 0.0 : TicksToMs(lo);
    return;
  }

  // The ranks each percentile reads: k and k + 1, or n - 1 alone.
  struct Rank {
    std::size_t rank = 0;
    std::size_t bucket = 0;
    std::size_t within = 0;  // rank among its bucket's ticks
    SimTime tick = 0;
  };
  std::vector<Rank> ranks;
  const auto position = [n](double p) {
    return (p / 100.0) * static_cast<double>(n - 1);
  };
  for (const double p : ps) {
    const auto k = static_cast<std::size_t>(position(p));
    if (k + 1 >= n) {
      ranks.push_back({n - 1});
    } else {
      ranks.push_back({k});
      ranks.push_back({k + 1});
    }
  }
  std::sort(ranks.begin(), ranks.end(),
            [](const Rank& a, const Rank& b) { return a.rank < b.rank; });

  const auto base = static_cast<std::uint64_t>(lo);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - base;
  const int width = std::bit_width(span);
  const int shift = width > kBucketBits ? width - kBucketBits : 0;
  const auto bucket_of = [base, shift](SimTime t) {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(t) - base) >>
                                    shift);
  };
  std::vector<std::size_t> counts(bucket_of(hi) + 1, 0);
  for (const std::span<const SimTime> pool : pools) {
    for (const SimTime t : pool) ++counts[bucket_of(t)];
  }

  // Ranks ascend, so one walk over the buckets places them all.
  std::size_t bucket = 0;
  std::size_t below = 0;  // ticks in buckets before `bucket`
  for (Rank& r : ranks) {
    while (below + counts[bucket] <= r.rank) below += counts[bucket++];
    r.bucket = bucket;
    r.within = r.rank - below;
  }

  // Gather the wanted buckets' ticks into consecutive slices of `picked`;
  // `counts` is reused to map a wanted bucket to its slot + 1.
  std::vector<std::size_t> slot_begin;
  std::size_t total = 0;
  std::vector<std::size_t> wanted;
  for (const Rank& r : ranks) {
    if (!wanted.empty() && wanted.back() == r.bucket) continue;
    wanted.push_back(r.bucket);
    slot_begin.push_back(total);
    total += counts[r.bucket];
  }
  std::fill(counts.begin(), counts.end(), 0);
  for (std::size_t s = 0; s < wanted.size(); ++s) counts[wanted[s]] = s + 1;
  std::vector<SimTime> picked(total);
  std::vector<std::size_t> fill = slot_begin;
  for (const std::span<const SimTime> pool : pools) {
    for (const SimTime t : pool) {
      const std::size_t slot = counts[bucket_of(t)];
      if (slot != 0) picked[fill[slot - 1]++] = t;
    }
  }
  for (std::size_t s = 0; s < wanted.size(); ++s) {
    std::sort(picked.begin() + static_cast<std::ptrdiff_t>(slot_begin[s]),
              picked.begin() + static_cast<std::ptrdiff_t>(fill[s]));
  }
  for (Rank& r : ranks) {
    r.tick = picked[slot_begin[counts[r.bucket] - 1] + r.within];
  }

  const auto tick_at = [&ranks](std::size_t rank) {
    return std::lower_bound(ranks.begin(), ranks.end(), rank,
                            [](const Rank& r, std::size_t k) {
                              return r.rank < k;
                            })
        ->tick;
  };
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double rank = position(ps[i]);
    const auto k = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(k);
    if (k + 1 >= n) {
      out[i] = TicksToMs(tick_at(n - 1));
    } else {
      out[i] = TicksToMs(tick_at(k)) * (1.0 - frac) +
               TicksToMs(tick_at(k + 1)) * frac;
    }
  }
}

template <typename Sum>
double MeanMs(Sum ticks, std::size_t n) {
  return static_cast<double>(ticks) / static_cast<double>(kNsPerMs) /
         static_cast<double>(n);
}

}  // namespace

double TickPercentileMs(std::span<const std::span<const SimTime>> pools,
                        double p) {
  double value = 0.0;
  PercentilesMs(pools, {&p, 1}, {&value, 1});
  return value;
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
    to.merged.push_back(std::move(from.latency));
    for (auto& pool : from.merged) to.merged.push_back(std::move(pool));
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
  // A model's pools: its own, then the ones Merge moved in.
  const auto model_pools = [](const Model& m) {
    std::vector<std::span<const SimTime>> pools = {m.latency};
    for (const auto& pool : m.merged) pools.emplace_back(pool);
    return pools;
  };
  std::vector<std::span<const SimTime>> pools;
  std::size_t models = 0;  // with completions
  for (const Model& m : models_) {
    if (m.completed == 0) continue;
    ++models;
    stats.completed += m.completed;
    stats.model_swaps += m.swaps;
    violations += m.violations;
    latency_sum += m.latency_sum;
    for (const auto pool : model_pools(m)) pools.push_back(pool);
  }
  if (stats.completed == 0) return stats;

  const auto n = static_cast<double>(stats.completed);
  stats.mean_latency_ms = MeanMs(latency_sum, stats.completed);
  stats.mean_queue_delay_ms = MeanMs(queue_delay_sum_, stats.completed);
  stats.sla_violation_rate = static_cast<double>(violations) / n;
  stats.reconfig_stalled = reconfig_stalled_;

  // The aggregate selects over every model's pool at once; the maximum is
  // the 100th percentile.
  {
    const double ps[] = {50.0, 95.0, 99.0, 100.0};
    double ms[std::size(ps)];
    PercentilesMs(pools, ps, ms);
    stats.p50_latency_ms = ms[0];
    stats.p95_latency_ms = ms[1];
    stats.p99_latency_ms = ms[2];
    stats.max_latency_ms = ms[3];
  }
  for (std::size_t id = 0; id < models_.size(); ++id) {
    const Model& m = models_[id];
    if (m.completed == 0) continue;
    ModelStats ms;
    ms.model = static_cast<int>(id);
    ms.completed = m.completed;
    ms.mean_latency_ms = MeanMs(m.latency_sum, m.completed);
    if (models > 1) {
      const double ps[] = {95.0, 99.0};
      double tail[std::size(ps)];
      PercentilesMs(model_pools(m), ps, tail);
      ms.p95_latency_ms = tail[0];
      ms.p99_latency_ms = tail[1];
    } else {
      // One model: its pools are the aggregate pools.
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
