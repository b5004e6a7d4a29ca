// Per-query records and aggregate server statistics.
//
// The paper's headline metrics are 95th-percentile tail latency (Fig. 11)
// and latency-bounded throughput (Fig. 12); we additionally track SLA
// violation rate, queueing delay, and per-worker utilization.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/sim_time.h"

namespace pe::sim {

// One query's life on one server: the engine keeps one per injected query
// and nothing else, so its 48 bytes are the engine's per-query memory.
// Every narrowed field is checked where its value enters the engine and
// throws, naming the field, rather than wrap.
struct QueryRecord {
  SimTime arrival = 0;     // enters the server
  SimTime dispatched = 0;  // bound to a worker (== arrival unless queued)
  SimTime started = 0;     // execution begins on the GPU partition
  SimTime finished = 0;    // execution completes
  // The engine's dense query id; InjectQuery throws past 2^32 queries.
  std::uint32_t id = 0;
  // The worker's index, -1 until it starts; BuildWorkers throws past
  // 32,767 partitions.
  std::int16_t worker = -1;
  // InjectQuery throws on a batch outside [0, 65,535].
  std::uint16_t batch = 1;
  // Model identity (repertoire id); 0 for single-model runs.
  // ModelRepertoire holds at most 65,535 models.
  std::uint16_t model = 0;
  // Number of live-reconfiguration windows this query waited through while
  // queued (held at arrival, already central-queued, or orphaned from a
  // retired partition's local queue).  0 in any run without
  // reconfigurations; the downtime itself lands in QueueDelay().  An
  // increment past 65,535 throws std::overflow_error.
  std::uint16_t reconfig_stalls = 0;
  // Times a worker failure re-queued this query on its server; an
  // increment past 65,535 throws std::overflow_error.  A fleet retry is a
  // new record on its target server, not a count here.
  std::uint16_t retries = 0;
  // The worker's partition size; BuildWorkers throws on a partition wider
  // than 255 GPCs.
  std::uint8_t worker_gpcs = 0;
  // True when starting this query displaced a different resident model on
  // its partition (the server charged the model-swap penalty, if any).
  bool model_swap : 1 = false;
  // Fault outcome of this attempt.  `failed`: the query was on a worker
  // (or held by a server) that failed before completing it -- `finished`
  // holds the failure instant, not a completion.  `shed`: the per-query
  // deadline expired before the query could start, so the server dropped
  // it.  Both are excluded from latency statistics and tallied separately
  // (ServerStats::failed / shed).  Always false without fault injection.
  bool failed : 1 = false;
  bool shed : 1 = false;

  SimTime Latency() const { return finished - arrival; }
  SimTime QueueDelay() const { return started - arrival; }
};
static_assert(sizeof(QueryRecord) == 48,
              "QueryRecord is the engine's per-query memory");

struct WorkerStats {
  int index = 0;
  int gpcs = 0;
  SimTime busy_ticks = 0;
  std::uint64_t queries = 0;
  double utilization = 0.0;  // busy fraction of the measured span
};

// Per-model slice of a (possibly mixed-traffic) run.
struct ModelStats {
  int model = 0;
  std::size_t completed = 0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double sla_violation_rate = 0.0;
  // Completions whose start displaced a different resident model.
  std::size_t swaps = 0;
};

struct ServerStats {
  std::size_t completed = 0;
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  double mean_queue_delay_ms = 0.0;
  double sla_violation_rate = 0.0;  // fraction with latency > SLA target
  double achieved_qps = 0.0;        // completions / measured span
  double mean_worker_utilization = 0.0;  // GPC-weighted busy fraction
  // Queries (among the included records) whose queueing was prolonged by
  // at least one live reconfiguration (QueryRecord::reconfig_stalls > 0):
  // the queue-build-up transient a layout swap causes.
  std::size_t reconfig_stalled = 0;
  // Starts (among the included records) that displaced a different
  // resident model on their partition -- the cross-model interference a
  // consolidated multi-model layout pays for sharing partitions.
  std::size_t model_swaps = 0;
  // Fault casualties among the included records: attempts killed by a
  // worker/server failure and queries dropped on deadline expiry.  Both
  // are excluded from every latency/throughput/utilization figure above
  // (their sentinel timestamps would poison the percentiles); `completed`
  // counts only genuine completions.  Zero without fault injection.
  std::size_t failed = 0;
  std::size_t shed = 0;
  std::vector<WorkerStats> workers;
  // One entry per model id seen in the included records, ascending; a
  // single entry (model 0) for single-model runs.
  std::vector<ModelStats> models;
};

// Leading query ids a warmup fraction excludes from a population of `n`
// queries: a record counts iff its query id is >= this cut.  Keyed by id,
// not by position, so the cut is the same however the records are split
// or ordered (the fleet applies one cut over global ids to every server).
// `warmup_fraction` must lie in [0, 1).
std::uint64_t WarmupCut(double warmup_fraction, std::size_t n);

// The p-th percentile (p in [0, 100]) of the latency ticks in `pools`,
// taken as one pool with no merged copy, in milliseconds, interpolated
// between closest ranks: with the n latencies in milliseconds sorted as x
// and k + f = (p / 100) * (n - 1) (integer k, fraction f), it is
// x[k] * (1 - f) + x[k + 1] * f, or x[n - 1] when k + 1 == n.  Picked
// exactly by bucket selection instead of a sort: a histogram of at most
// 4,096 buckets over tick - min locates each rank's bucket, and only those
// buckets are sorted.  0 when the pools are empty.
double TickPercentileMs(std::span<const std::span<const SimTime>> pools,
                        double p);

// Order-free reduction of query records into ServerStats.  Sums are exact
// integer nanosecond ticks and percentiles are order statistics, so the
// result depends only on the multiset of records added -- not on their
// order, and not on how they were spread over accumulators merged back
// together.  That is what lets the fleet aggregate be a merge of
// per-server partials computed in parallel.
//
// Conventions (the stats oracle in tests/ reproduces them):
//  * failed and shed records are counted, never sampled;
//  * means are double(sum of ticks) / kNsPerMs / completed;
//  * percentiles interpolate between closest ranks over the latencies
//    in milliseconds, by TickPercentileMs's rule and its bucket
//    selection -- the aggregate over every model's pools at once, with no
//    merged copy;
//  * workers are keyed by (index, gpcs) -- a live reconfiguration reuses
//    indices -- and utilization is busy ticks over the span from the
//    earliest arrival to the latest finish among completions (zero when
//    that span is empty).
class StatsAccumulator {
 public:
  explicit StatsAccumulator(SimTime sla_target) : sla_target_(sla_target) {}

  // Folds in one record, filed under model id `model` (the fleet passes a
  // server-local record's global model id).  A completed record must name
  // its worker (index >= 0).
  void Add(const QueryRecord& r, int model);
  void Add(const QueryRecord& r) { Add(r, r.model); }

  // Absorbs `other` (built with the same SLA target), shifting its worker
  // indices by `worker_base`; `other` is left empty.  Its latency pools
  // move in whole, never copied, so merging partials holds each latency
  // once.
  void Merge(StatsAccumulator&& other, int worker_base = 0);

  // Statistics of everything added so far.
  ServerStats Finish();

 private:
  using TickSum = unsigned __int128;  // 100M queries x 10 s ~ 1e18 ns
  struct Model {
    std::size_t completed = 0;
    std::size_t violations = 0;
    std::size_t swaps = 0;
    TickSum latency_sum = 0;
    std::vector<SimTime> latency;  // latency ticks of the completions Added
    std::vector<std::vector<SimTime>> merged;  // pools Merge moved in
  };

  WorkerStats& Worker(int index, int gpcs);
  Model& ModelAt(int model);

  SimTime sla_target_;
  std::size_t failed_ = 0;
  std::size_t shed_ = 0;
  std::size_t reconfig_stalled_ = 0;
  TickSum queue_delay_sum_ = 0;
  // Over completions only; the sentinels make an empty side neutral.
  SimTime min_arrival_ = std::numeric_limits<SimTime>::max();
  SimTime max_finish_ = std::numeric_limits<SimTime>::min();
  // By worker index: one entry per partition size seen at that index.
  std::vector<std::vector<WorkerStats>> workers_;
  std::vector<Model> models_;  // by model id
};

// Aggregates records into ServerStats.
//  * `sla_target`: latency bound for the violation-rate metric.
//  * `warmup_fraction`: records whose query id is below
//    WarmupCut(warmup_fraction, records.size()) are left out, removing
//    cold-start transients.  For a single server's records (ids 0..n-1 in
//    arrival order) that is the leading fraction of arrivals.
ServerStats ComputeStats(std::span<const QueryRecord> records,
                         SimTime sla_target, double warmup_fraction = 0.1);

}  // namespace pe::sim
