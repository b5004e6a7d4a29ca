#include "fleet/router.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/thread_pool.h"

namespace pe::fleet {

namespace {

// Rows per parallel chunk, for hash routing and the split: coarse enough
// that pool overhead is noise against the ~ns-per-row kernels, fine
// enough to spread a million-query trace over every core.  Chunk bounds
// depend only on the row count, never on `jobs`.
constexpr std::size_t kParallelGrain = 65536;

// Replica lookup shared by every policy: all three previously indexed
// reps[...] without checking, which is UB when a trace carries a model id
// no server hosts.  One guard, one message, named model.
[[noreturn]] void ThrowUnroutable(int model_id) {
  throw std::logic_error("Router: no server hosts model " +
                         std::to_string(model_id) +
                         " (query references an unplaced model)");
}

const std::vector<int>& RoutableReplicas(const PlacementMap& placement,
                                         int model_id) {
  if (model_id < 0 || model_id >= placement.num_models()) {
    ThrowUnroutable(model_id);
  }
  const std::vector<int>& reps = placement.Replicas(model_id);
  if (reps.empty()) ThrowUnroutable(model_id);
  return reps;
}

// Per-model replica cache for the batch loops: pointer + size resolved
// once per model instead of a Replicas() call (bounds check + two
// indirections) per query.
struct ReplicaRef {
  const int* data = nullptr;
  std::uint32_t size = 0;
};

std::vector<ReplicaRef> CacheReplicas(const PlacementMap& placement) {
  std::vector<ReplicaRef> cache(
      static_cast<std::size_t>(placement.num_models()));
  for (int m = 0; m < placement.num_models(); ++m) {
    const std::vector<int>& reps = RoutableReplicas(placement, m);
    cache[static_cast<std::size_t>(m)] = {
        reps.data(), static_cast<std::uint32_t>(reps.size())};
  }
  return cache;
}

// Deterministic virtual backlog shared by the load-aware policies: one
// free-at clock per server, advanced by the profiled service estimate
// scaled down by the server's parallelism.
class BacklogModel {
 public:
  BacklogModel(const PlacementMap& placement,
               const profile::ModelRepertoire* repertoire)
      : repertoire_(repertoire) {
    gpcs_.reserve(placement.num_servers());
    lanes_.reserve(placement.num_servers());
    for (const ServerPlacement& sp : placement.servers()) {
      // Layout may be unfilled when the router runs standalone (tests);
      // treat the whole budget as one lane then.
      int max_gpcs = sp.gpc_budget;
      int lanes = 1;
      if (!sp.partition_gpcs.empty()) {
        max_gpcs = *std::max_element(sp.partition_gpcs.begin(),
                                     sp.partition_gpcs.end());
        lanes = static_cast<int>(sp.partition_gpcs.size());
      }
      gpcs_.push_back(max_gpcs);
      lanes_.push_back(lanes);
    }
    // Servers sharing a (largest partition, lane count) pair see identical
    // costs for any (model, batch); the memo below caches per such class,
    // not per server, so a 100-server homogeneous fleet shares one table.
    class_of_.reserve(gpcs_.size());
    for (std::size_t s = 0; s < gpcs_.size(); ++s) {
      const std::pair<int, int> key{gpcs_[s], lanes_[s]};
      std::size_t id = 0;
      while (id < classes_.size() && classes_[id] != key) ++id;
      if (id == classes_.size()) classes_.push_back(key);
      class_of_.push_back(id);
    }
    Reset();
  }

  void Reset() { free_at_.assign(gpcs_.size(), 0.0); }

  double BacklogSec(int server, double now_sec) const {
    return std::max(0.0, free_at_[static_cast<size_t>(server)] - now_sec);
  }

  // Advances `server`'s free-at clock past `now_sec` by the query's cost.
  void Charge(int server, const workload::Query& query, double now_sec) {
    double& free_at = free_at_[static_cast<size_t>(server)];
    free_at = std::max(free_at, now_sec) + MemoCostSec(server, query);
  }

 private:
  // Profiled service estimate over the server's lanes.
  double CostSec(int server, const workload::Query& query) const {
    const auto s = static_cast<size_t>(server);
    if (repertoire_ != nullptr && repertoire_->Has(query.model_id)) {
      const int batch = std::min(query.batch, repertoire_->max_batch());
      return repertoire_->EstimateSec(query.model_id, gpcs_[s], batch) /
             static_cast<double>(lanes_[s]);
    }
    // No profile surface: a nominal 1 ms per batch item keeps the policy
    // deterministic and batch-aware, just not model-weighted.
    return 1e-3 * static_cast<double>(query.batch) /
           static_cast<double>(lanes_[s]);
  }

  // CostSec memoized per (server class, model, clamped batch): the table
  // stores the already-divided CostSec value, so the std::map profile
  // lookup happens once per distinct key.
  double MemoCostSec(int server, const workload::Query& query) {
    if (repertoire_ == nullptr || !repertoire_->Has(query.model_id) ||
        query.batch < 0) {
      return CostSec(server, query);
    }
    const int batch = std::min(query.batch, repertoire_->max_batch());
    const auto s = static_cast<size_t>(server);
    const std::size_t cls = class_of_[s];
    if (memo_.empty()) {
      memo_.assign(classes_.size(), {});
    }
    std::vector<double>& table = memo_[cls];
    const auto stride = static_cast<std::size_t>(repertoire_->max_batch()) + 1;
    if (table.empty()) {
      table.assign(static_cast<std::size_t>(repertoire_->size()) * stride,
                   -1.0);
    }
    double& slot = table[static_cast<std::size_t>(query.model_id) * stride +
                         static_cast<std::size_t>(batch)];
    if (slot < 0.0) {
      slot = repertoire_->EstimateSec(query.model_id, gpcs_[s], batch) /
             static_cast<double>(lanes_[s]);
    }
    return slot;
  }

  const profile::ModelRepertoire* repertoire_;
  std::vector<int> gpcs_;   // largest partition per server
  std::vector<int> lanes_;  // worker count per server
  std::vector<double> free_at_;
  std::vector<std::pair<int, int>> classes_;  // distinct (gpcs, lanes)
  std::vector<std::size_t> class_of_;         // server -> class index
  std::vector<std::vector<double>> memo_;     // class -> cost table
};

class HashRouter final : public Router {
 public:
  explicit HashRouter(const PlacementMap& placement)
      : placement_(placement) {}

  std::vector<int> RouteAll(const workload::QueryTrace& trace,
                            int jobs) override {
    const std::vector<workload::Query>& queries = trace.queries();
    const std::vector<ReplicaRef> reps = CacheReplicas(placement_);
    const std::vector<std::uint64_t> salt = HoistSalts(reps.size());
    std::vector<int> out(queries.size());
    if (jobs <= 1 || queries.size() < kParallelGrain) {
      RouteRange(queries, reps, salt, out, 0, queries.size());
      return out;
    }
    // Chunk boundaries depend only on the query count, and out[i] depends
    // only on query i -- the assignment vector is identical for any jobs
    // (the serial loop included).  Chunks write disjoint ranges of `out`;
    // reps/salt are shared read-only.
    const std::size_t chunks =
        (queries.size() + kParallelGrain - 1) / kParallelGrain;
    ParallelMap(chunks, jobs, [&](std::size_t c) {
      const std::size_t begin = c * kParallelGrain;
      const std::size_t end =
          std::min(begin + kParallelGrain, queries.size());
      RouteRange(queries, reps, salt, out, begin, end);
      return 0;  // ParallelMap needs a result; the chunk writes in place
    });
    return out;
  }

  void Reset() override {}
  std::string name() const override { return "hash"; }

 private:
  // The per-model salt Mix64(model_id) is query-independent; hoist it.
  static std::vector<std::uint64_t> HoistSalts(std::size_t num_models) {
    std::vector<std::uint64_t> salt(num_models);
    for (std::size_t m = 0; m < num_models; ++m) {
      salt[m] = Mix64(static_cast<std::uint64_t>(m));
    }
    return salt;
  }

  // The hash kernel over queries[begin, end): one full-range call when
  // serial, one call per parallel chunk otherwise.  Salting with the
  // model id decorrelates the replica choice across models sharing a
  // replica-set size.
  static void RouteRange(const std::vector<workload::Query>& queries,
                         const std::vector<ReplicaRef>& reps,
                         const std::vector<std::uint64_t>& salt,
                         std::vector<int>& out, std::size_t begin,
                         std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const workload::Query& q = queries[i];
      if (static_cast<std::uint32_t>(q.model_id) >=
          static_cast<std::uint32_t>(reps.size())) {
        ThrowUnroutable(q.model_id);
      }
      const ReplicaRef& r = reps[static_cast<std::size_t>(q.model_id)];
      out[i] = r.size == 1
                   ? r.data[0]
                   : r.data[Mix64(q.id ^
                                  salt[static_cast<std::size_t>(q.model_id)]) %
                            r.size];
    }
  }

  const PlacementMap& placement_;
};

class LeastLoadedRouter final : public Router {
 public:
  LeastLoadedRouter(const PlacementMap& placement,
                    const profile::ModelRepertoire* repertoire)
      : placement_(placement), backlog_(placement, repertoire) {}

  // Stateful: each pick reads and advances the backlog clocks, so the
  // loop is serial whatever `jobs` says.
  std::vector<int> RouteAll(const workload::QueryTrace& trace,
                            int /*jobs*/) override {
    const std::vector<workload::Query>& queries = trace.queries();
    const std::vector<ReplicaRef> reps = CacheReplicas(placement_);
    std::vector<int> out(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const workload::Query& q = queries[i];
      if (static_cast<std::uint32_t>(q.model_id) >=
          static_cast<std::uint32_t>(reps.size())) {
        ThrowUnroutable(q.model_id);
      }
      const ReplicaRef& r = reps[static_cast<std::size_t>(q.model_id)];
      const double now = TicksToSec(q.arrival);
      int best = r.data[0];
      double best_backlog = backlog_.BacklogSec(best, now);
      for (std::uint32_t k = 1; k < r.size; ++k) {
        const double b = backlog_.BacklogSec(r.data[k], now);
        // Strict < : ties break toward the lowest server id (reps ascend).
        if (b < best_backlog) {
          best = r.data[k];
          best_backlog = b;
        }
      }
      backlog_.Charge(best, q, now);
      out[i] = best;
    }
    return out;
  }

  void Reset() override { backlog_.Reset(); }
  std::string name() const override { return "least"; }

 private:
  const PlacementMap& placement_;
  BacklogModel backlog_;
};

class PowerOfTwoRouter final : public Router {
 public:
  PowerOfTwoRouter(const PlacementMap& placement,
                   const profile::ModelRepertoire* repertoire,
                   std::uint64_t seed)
      : placement_(placement),
        backlog_(placement, repertoire),
        seed_(seed),
        rng_(seed) {}

  // Stateful (RNG stream and backlog clocks): serial whatever `jobs` says.
  std::vector<int> RouteAll(const workload::QueryTrace& trace,
                            int /*jobs*/) override {
    const std::vector<workload::Query>& queries = trace.queries();
    const std::vector<ReplicaRef> reps = CacheReplicas(placement_);
    // Per model, the ranges of the two candidate draws: [0, n-1] for the
    // first, [0, n-2] for the second (shifted past the first).
    std::vector<UniformIntRange> first;
    std::vector<UniformIntRange> second;
    first.reserve(reps.size());
    second.reserve(reps.size());
    for (const ReplicaRef& r : reps) {
      const auto n = static_cast<std::int64_t>(r.size);
      first.emplace_back(0, n - 1);
      second.emplace_back(0, std::max<std::int64_t>(n - 2, 0));
    }
    std::vector<int> out(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const workload::Query& q = queries[i];
      if (static_cast<std::uint32_t>(q.model_id) >=
          static_cast<std::uint32_t>(reps.size())) {
        ThrowUnroutable(q.model_id);
      }
      const auto m = static_cast<std::size_t>(q.model_id);
      const ReplicaRef& r = reps[m];
      const double now = TicksToSec(q.arrival);
      int choice;
      if (r.size == 1) {
        choice = r.data[0];
      } else {
        // Two distinct candidates from the router's own stream.
        const auto a = static_cast<std::size_t>(rng_.UniformInt(first[m]));
        auto b = static_cast<std::size_t>(rng_.UniformInt(second[m]));
        if (b >= a) ++b;
        const double backlog_a = backlog_.BacklogSec(r.data[a], now);
        const double backlog_b = backlog_.BacklogSec(r.data[b], now);
        if (backlog_a < backlog_b) {
          choice = r.data[a];
        } else if (backlog_b < backlog_a) {
          choice = r.data[b];
        } else {
          choice = std::min(r.data[a], r.data[b]);  // tie: lowest id
        }
      }
      backlog_.Charge(choice, q, now);
      out[i] = choice;
    }
    return out;
  }

  void Reset() override {
    backlog_.Reset();
    rng_ = Rng(seed_);
  }

  std::string name() const override { return "po2c"; }

 private:
  const PlacementMap& placement_;
  BacklogModel backlog_;
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace

const char* ToString(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kHash:
      return "hash";
    case RouterPolicy::kLeastLoaded:
      return "least";
    case RouterPolicy::kPowerOfTwo:
      return "po2c";
  }
  return "?";
}

std::optional<RouterPolicy> ParseRouterPolicy(const std::string& name) {
  if (name == "hash") return RouterPolicy::kHash;
  if (name == "least") return RouterPolicy::kLeastLoaded;
  if (name == "po2c") return RouterPolicy::kPowerOfTwo;
  return std::nullopt;
}

std::unique_ptr<Router> MakeRouter(RouterPolicy policy,
                                   const PlacementMap& placement,
                                   const profile::ModelRepertoire* repertoire,
                                   std::uint64_t seed) {
  switch (policy) {
    case RouterPolicy::kHash:
      return std::make_unique<HashRouter>(placement);
    case RouterPolicy::kLeastLoaded:
      return std::make_unique<LeastLoadedRouter>(placement, repertoire);
    case RouterPolicy::kPowerOfTwo:
      return std::make_unique<PowerOfTwoRouter>(placement, repertoire, seed);
  }
  throw std::invalid_argument("MakeRouter: unknown policy");
}

TraceSplit SplitTrace(const workload::QueryTrace& trace, Router& router,
                      const PlacementMap& placement, int jobs) {
  return SplitByAssignment(trace, router.RouteAll(trace, jobs), placement,
                           jobs);
}

TraceSplit SplitByAssignment(const workload::QueryTrace& trace,
                             std::span<const int> assignment,
                             const PlacementMap& placement, int jobs) {
  const std::vector<workload::Query>& queries = trace.queries();
  const std::size_t rows = queries.size();
  const auto n = static_cast<std::size_t>(placement.num_servers());
  if (assignment.size() != rows) {
    throw std::logic_error("SplitByAssignment: assignment size mismatch");
  }
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t chunks = (rows + kParallelGrain - 1) / kParallelGrain;
  const auto chunk_end = [&](std::size_t c) {
    return std::min(rows, (c + 1) * kParallelGrain);
  };

  // Step 1: per chunk, rows per destination server (-1 = dropped), plus
  // the chunk's first row with a bad query id and first with a bad server.
  struct ChunkCount {
    std::vector<std::size_t> rows;  // per server; step 2 makes these cursors
    std::size_t bad_id = kNone;
    std::size_t bad_server = kNone;
  };
  auto counts = ParallelMap(chunks, jobs, [&](std::size_t c) {
    ChunkCount out;
    out.rows.assign(n, 0);
    for (std::size_t i = c * kParallelGrain; i < chunk_end(c); ++i) {
      // Fleet drivers index per-query state by Query::id (global ids,
      // retry bookkeeping), so a fleet trace's ids must be its rows.
      if (queries[i].id != i) {
        out.bad_id = i;
        break;
      }
      const int server = assignment[i];
      if (server == -1) continue;
      if (server < 0 || static_cast<std::size_t>(server) >= n) {
        if (out.bad_server == kNone) out.bad_server = i;
        continue;
      }
      ++out.rows[static_cast<std::size_t>(server)];
    }
    return out;
  });
  // The serial loop's precedence: a bad query id anywhere first, then a
  // bad server id, each at its first row.
  for (const ChunkCount& chunk : counts) {
    if (chunk.bad_id == kNone) continue;
    const std::size_t i = chunk.bad_id;
    throw std::invalid_argument(
        "SplitByAssignment: trace row " + std::to_string(i) +
        " has query id " + std::to_string(queries[i].id) +
        "; fleet trace ids must equal their row positions");
  }
  for (const ChunkCount& chunk : counts) {
    if (chunk.bad_server == kNone) continue;
    const std::size_t i = chunk.bad_server;
    throw std::logic_error("SplitByAssignment: trace row " +
                           std::to_string(i) + " has bad server id " +
                           std::to_string(assignment[i]));
  }

  // Step 2: span boundaries per server, then each chunk's starting cursor
  // per server -- the rows earlier chunks send there come first.
  TraceSplit split;
  split.offsets.assign(n + 1, 0);
  for (std::size_t s = 0; s < n; ++s) {
    std::size_t at = split.offsets[s];
    for (ChunkCount& chunk : counts) {
      const std::size_t here = chunk.rows[s];
      chunk.rows[s] = at;
      at += here;
    }
    split.offsets[s + 1] = at;
  }

  // Step 3: each chunk fills its rows into the flat arenas from its
  // cursors; chunks write disjoint slots, and the dense local id is the
  // distance from the server's span start.
  split.arena.resize(split.offsets.back());
  split.global_ids.resize(split.offsets.back());
  const auto unhosted = ParallelMap(chunks, jobs, [&](std::size_t c) {
    std::vector<std::size_t>& cursor = counts[c].rows;
    for (std::size_t i = c * kParallelGrain; i < chunk_end(c); ++i) {
      const int server = assignment[i];
      if (server == -1) continue;
      const workload::Query& q = queries[i];
      const bool placed =
          q.model_id >= 0 && q.model_id < placement.num_models();
      const int local_model =
          placed ? placement.LocalModel(server, q.model_id) : -1;
      if (local_model < 0) return i;
      const auto s = static_cast<std::size_t>(server);
      const std::size_t at = cursor[s]++;
      workload::Query& local = split.arena[at];
      local = q;
      local.id = at - split.offsets[s];
      local.model_id = local_model;
      split.global_ids[at] = q.id;
    }
    return kNone;
  });
  for (const std::size_t i : unhosted) {
    if (i == kNone) continue;
    throw std::logic_error(
        "SplitByAssignment: trace row " + std::to_string(i) +
        " routed to server " + std::to_string(assignment[i]) +
        ", which does not host model " +
        std::to_string(queries[i].model_id));
  }
  return split;
}

}  // namespace pe::fleet
