#include "fleet/router.h"

#include <algorithm>
#include <bit>
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
               const profile::ModelRepertoire* repertoire) {
    std::vector<int> class_gpcs;
    std::vector<int> class_lanes;
    lanes_.reserve(placement.num_servers());
    class_of_.reserve(placement.num_servers());
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
      // Servers sharing a (largest partition, lane count) pair see
      // identical costs for any (model, batch), so the cost table below
      // is per such class, not per server: a 100-server homogeneous fleet
      // shares one.
      std::size_t id = 0;
      while (id < class_gpcs.size() &&
             (class_gpcs[id] != max_gpcs || class_lanes[id] != lanes)) {
        ++id;
      }
      if (id == class_gpcs.size()) {
        class_gpcs.push_back(max_gpcs);
        class_lanes.push_back(lanes);
      }
      lanes_.push_back(lanes);
      class_of_.push_back(id);
    }
    // The profiled service estimate over the lanes, for every (class,
    // repertoire model, batch in [0, the repertoire's largest]).  A batch
    // above the largest is charged as the largest, and a negative one as
    // 0: the profile snaps 0 and every negative batch to its smallest.
    if (repertoire != nullptr) {
      models_ = static_cast<std::size_t>(repertoire->size());
      max_batch_ = repertoire->max_batch();
    }
    const auto stride = static_cast<std::size_t>(max_batch_) + 1;
    cost_.resize(class_gpcs.size() * models_ * stride);
    for (std::size_t c = 0; c < class_gpcs.size(); ++c) {
      for (std::size_t m = 0; m < models_; ++m) {
        double* row = &cost_[(c * models_ + m) * stride];
        for (int b = 0; b <= max_batch_; ++b) {
          row[b] = repertoire->EstimateSec(static_cast<int>(m),
                                           class_gpcs[c], b) /
                   static_cast<double>(class_lanes[c]);
        }
      }
    }
    Reset();
  }

  void Reset() { free_at_.assign(lanes_.size(), 0.0); }

  // The backlog max(0, free_at - now) in seconds, as the bits of the
  // double.  The clocks and `now_sec` are finite, so the difference is
  // never NaN and a negative one (or -0) maps to +0: the bits of a
  // non-negative double order like its value, and the policies compare
  // backlogs as integers, which compiles to flag and mask arithmetic
  // rather than branches on the data.
  std::uint64_t Backlog(int server, double now_sec) const {
    const auto diff = std::bit_cast<std::uint64_t>(
        free_at_[static_cast<size_t>(server)] - now_sec);
    return diff & ((diff >> 63) - 1);  // sign bit set -> +0
  }

  // Advances `server`'s free-at clock past `now_sec` by the query's cost.
  void Charge(int server, const workload::Query& query, double now_sec) {
    double& free_at = free_at_[static_cast<size_t>(server)];
    free_at = std::max(free_at, now_sec) + CostSec(server, query);
  }

 private:
  double CostSec(int server, const workload::Query& query) const {
    const auto s = static_cast<size_t>(server);
    const auto m = static_cast<std::size_t>(
        static_cast<std::uint32_t>(query.model_id));
    if (m < models_) {
      const auto stride = static_cast<std::size_t>(max_batch_) + 1;
      const auto b =
          static_cast<std::size_t>(std::clamp(query.batch, 0, max_batch_));
      return cost_[(class_of_[s] * models_ + m) * stride + b];
    }
    // No profile surface: a nominal 1 ms per batch item keeps the policy
    // deterministic and batch-aware, just not model-weighted.
    return 1e-3 * static_cast<double>(query.batch) /
           static_cast<double>(lanes_[s]);
  }

  std::vector<int> lanes_;             // worker count per server
  std::vector<std::size_t> class_of_;  // server -> cost class
  std::size_t models_ = 0;             // profiled models (0: no repertoire)
  int max_batch_ = 0;                  // largest tabled batch
  // [class][model][batch] -> seconds of backlog one query adds.
  std::vector<double> cost_;
  std::vector<double> free_at_;
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
      std::uint64_t best_backlog = backlog_.Backlog(best, now);
      for (std::uint32_t k = 1; k < r.size; ++k) {
        const std::uint64_t b = backlog_.Backlog(r.data[k], now);
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
      int choice = r.data[0];
      if (r.size > 1) {
        // Two distinct candidates from the router's own stream.
        const auto a = static_cast<std::size_t>(rng_.UniformInt(first[m]));
        auto b = static_cast<std::size_t>(rng_.UniformInt(second[m]));
        b += b >= a ? 1 : 0;
        const int server_a = r.data[a];
        const int server_b = r.data[b];
        // The smaller backlog wins and a tie goes to the lower id, as one
        // masked select with no branch on the data.
        const std::uint64_t backlog_a = backlog_.Backlog(server_a, now);
        const std::uint64_t backlog_b = backlog_.Backlog(server_b, now);
        const int take_a = (backlog_a < backlog_b) |
                           ((backlog_a == backlog_b) & (server_a < server_b));
        choice = server_b ^ ((server_a ^ server_b) & -take_a);
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
  // the chunk's first row with a bad query id, first with a bad server,
  // and first sent to a server that does not host its model.
  struct ChunkCount {
    std::vector<std::size_t> rows;  // per server; step 2 makes these cursors
    std::size_t bad_id = kNone;
    std::size_t bad_server = kNone;
    std::size_t unhosted = kNone;
  };
  auto counts = ParallelMap(chunks, jobs, [&](std::size_t c) {
    ChunkCount out;
    out.rows.assign(n, 0);
    for (std::size_t i = c * kParallelGrain; i < chunk_end(c); ++i) {
      // Fleet drivers index per-query state by Query::id (global ids,
      // retry bookkeeping), so a fleet trace's ids must be its rows.
      const workload::Query& q = queries[i];
      if (q.id != i) {
        out.bad_id = i;
        break;
      }
      const int server = assignment[i];
      if (server == -1) continue;
      if (server < 0 || static_cast<std::size_t>(server) >= n) {
        if (out.bad_server == kNone) out.bad_server = i;
        continue;
      }
      const bool placed =
          q.model_id >= 0 && q.model_id < placement.num_models();
      const bool hosted =
          placed && placement.LocalModel(server, q.model_id) >= 0;
      if (!hosted && out.unhosted == kNone) out.unhosted = i;
      ++out.rows[static_cast<std::size_t>(server)];
    }
    return out;
  });
  // The serial loop's precedence: a bad query id anywhere first, then a
  // bad server id, then an unhosted model, each at its first row.
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
  for (const ChunkCount& chunk : counts) {
    if (chunk.unhosted == kNone) continue;
    const std::size_t i = chunk.unhosted;
    throw std::logic_error(
        "SplitByAssignment: trace row " + std::to_string(i) +
        " routed to server " + std::to_string(assignment[i]) +
        ", which does not host model " +
        std::to_string(queries[i].model_id));
  }

  // Step 2: span boundaries per server, then each chunk's starting cursor
  // per server -- the rows earlier chunks send there come first.
  TraceSplit split;
  split.trace = &trace;
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

  // Step 3: each chunk writes its row indices -- the global ids -- from
  // its cursors; chunks write disjoint slots.
  split.global_ids.resize(split.offsets.back());
  ParallelMap(chunks, jobs, [&](std::size_t c) {
    std::vector<std::size_t>& cursor = counts[c].rows;
    for (std::size_t i = c * kParallelGrain; i < chunk_end(c); ++i) {
      const int server = assignment[i];
      if (server == -1) continue;
      split.global_ids[cursor[static_cast<std::size_t>(server)]++] = i;
    }
    return 0;
  });
  return split;
}

std::vector<workload::Query> LocalQueries(const TraceSplit& split,
                                          const PlacementMap& placement,
                                          int server) {
  if (split.trace == nullptr) {
    throw std::logic_error("LocalQueries: the split has no trace");
  }
  const std::vector<workload::Query>& queries = split.trace->queries();
  const std::span<const std::uint64_t> gids = split.GlobalIds(server);
  std::vector<workload::Query> local;
  local.reserve(gids.size());
  for (const std::uint64_t gid : gids) {
    workload::Query q = queries[gid];
    q.id = local.size();
    // SplitByAssignment checked that the server hosts every routed model.
    q.model_id = placement.LocalModel(server, q.model_id);
    local.push_back(q);
  }
  return local;
}

}  // namespace pe::fleet
