// The fleet's front tier: splitting one query stream across N servers.
//
// A Router sees each arrival once, in trace order, and picks a server
// among the replicas hosting the query's model (PlacementMap::Replicas).
// Routing happens *before* any server simulation starts and consumes no
// server RNG stream, so the per-server sub-traces -- and therefore every
// downstream simulation -- are a pure function of (trace, placement,
// policy, router seed).  That is what makes the fleet driver bit-identical
// at any --jobs count: parallelism only changes which thread replays a
// sub-trace, never the sub-trace itself.
//
// Three policies (paper-adjacent serving-tier staples):
//  * hash            -- model-affinity hashing: a stateless hash of the
//                       query id spreads a model's traffic over exactly its
//                       replica set (weights stay warm; no load feedback);
//  * least           -- least-loaded: deterministic virtual backlog per
//                       server (estimated service seconds still queued),
//                       pick the replica with the smallest backlog;
//  * po2c            -- power-of-two-choices: sample two distinct replicas
//                       from the router's own RNG stream, keep the less
//                       loaded one -- the classic O(1) approximation of
//                       least-loaded.
//
// The backlog model is the router's own bookkeeping, not a peek into the
// simulators: per server it tracks a single virtual free-at clock advanced
// by the profiled service estimate divided by the server's worker count.
// Coarse on purpose -- a real front tier routes on stale, aggregate
// signals, not on the scheduler's internal state.
//
// Each policy has exactly one routing loop, behind RouteAll(): a whole
// trace per call (no virtual dispatch per query, replica sets resolved
// once per model, profiled backlog charges read from a dense (server
// class, model, batch) table filled at construction).  The loops are
// exact restatements of the plain rules:
//  * a backlog max(0, free_at - now) is never NaN or -0, so comparing
//    the bits of the doubles as integers orders them like the values;
//  * po2c keeps the smaller backlog and, on a tie, the lower server id,
//    computed as one masked select instead of branches;
//  * po2c's candidate draws are Rng::UniformInt over precomputed ranges,
//    whose remainder is computed by multiplication (common/rng.h) and
//    equals draw % span.
// Checked-in assignment digests pin every policy's decisions, including
// replica sets of 10 and 50 servers (tests/fleet_router_test.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fleet/placement.h"
#include "profile/model_repertoire.h"
#include "workload/trace.h"

namespace pe::fleet {

enum class RouterPolicy { kHash, kLeastLoaded, kPowerOfTwo };

const char* ToString(RouterPolicy policy);

// Parses "hash" / "least" / "po2c" (the CLI spellings); nullopt otherwise.
std::optional<RouterPolicy> ParseRouterPolicy(const std::string& name);

class Router {
 public:
  virtual ~Router() = default;

  // The server id for every query of `trace`, in arrival order; each id
  // hosts its query's model.  Stateful policies advance their backlog
  // clocks and RNG stream query by query (call Reset() to replay) and
  // ignore `jobs`; the stateless `hash` spreads the trace over up to
  // `jobs` threads -- out[i] depends only on query i, so the result is
  // identical at any jobs count.  Throws std::logic_error when no server
  // hosts a query's model (unplaced id or empty replica set).
  virtual std::vector<int> RouteAll(const workload::QueryTrace& trace,
                                    int jobs) = 0;

  // Restores the construction-time state (backlog clocks, RNG stream), so
  // the same query sequence re-routes identically.
  virtual void Reset() = 0;

  virtual std::string name() const = 0;
};

// Builds a policy instance over `placement` (borrowed; must outlive the
// router).  Replica sets are re-read on every RouteAll call; the
// load-aware policies read each server's layout geometry (largest
// partition, lane count) once, here.  `repertoire` (borrowed, may be
// null) supplies the profiled service estimates for the backlog model,
// which the load-aware policies table here for every server class,
// repertoire model and batch (a profile with no entry for a class's
// largest partition throws std::out_of_range here); without it the
// backlog charge falls back to a nominal per-batch-item cost, which
// preserves determinism but not model-specific weighting.  `seed` feeds
// po2c's candidate draws; hash and least-loaded are RNG-free.
std::unique_ptr<Router> MakeRouter(RouterPolicy policy,
                                   const PlacementMap& placement,
                                   const profile::ModelRepertoire* repertoire,
                                   std::uint64_t seed);

// A trace split into per-server sub-streams, as row indices into the
// trace it was built from: the trace stays the only copy of each query's
// inputs.  Server s's queries are the trace rows
// global_ids[offsets[s], offsets[s+1]), in arrival order, and its local
// query id k is the k-th of them; LocalQueries rebuilds those rows as the
// server's engine sees them.
struct TraceSplit {
  // The trace the split indexes (borrowed: it must outlive the split).
  const workload::QueryTrace* trace = nullptr;
  // Local query id -> the fleet-level Query::id (its trace row), grouped
  // by destination server, in arrival order within each group.
  std::vector<std::uint64_t> global_ids;
  // Per-server span boundaries into global_ids; size num_servers + 1.
  std::vector<std::size_t> offsets;

  int num_servers() const {
    return static_cast<int>(offsets.empty() ? 0 : offsets.size() - 1);
  }
  std::span<const std::uint64_t> GlobalIds(int s) const {
    const auto i = static_cast<std::size_t>(s);
    return {global_ids.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

// Server `server`'s queries of `split`, as its engine sees them: the
// trace rows GlobalIds(server) names, in order, with query ids renumbered
// densely from 0 (the engine requires dense ids) and model ids re-mapped
// to the server's local repertoire (PlacementMap::LocalModel).
// `placement` must be the one the split was built against.  Every fleet
// driver calls it inside the server's own task, right before InjectSpan,
// so one server's rows are all that is live per task.  Throws
// std::logic_error on a split with no trace.
std::vector<workload::Query> LocalQueries(const TraceSplit& split,
                                          const PlacementMap& placement,
                                          int server);

// Routes every query of `trace` through `router` and splits the
// resulting assignment with SplitByAssignment.  `jobs` feeds both the
// router's parallel batch path (stateless policies only; see
// Router::RouteAll) and the split.  Throws what RouteAll and
// SplitByAssignment throw.
TraceSplit SplitTrace(const workload::QueryTrace& trace, Router& router,
                      const PlacementMap& placement, int jobs = 1);

// Builds the per-server sub-traces from an explicit assignment vector
// (assignment[i] = destination server of trace query i).  An assignment
// of -1 drops the query from every sub-trace -- the failover driver
// pre-sheds queries whose model has no healthy replica at arrival and
// routes the rest around the outage, then splits here.  The split points
// at `trace`, which must outlive it.
//
// The rows are cut into 64k-row chunks (bounds depend only on the row
// count) spread over up to `jobs` threads, in three steps: count each
// chunk's rows per server, prefix-sum the counts into a starting cursor
// per (chunk, server), then write each chunk's row indices from its
// cursors into one flat id list -- no per-server vector growth, and no
// copy of a query.  The result is identical at any `jobs`.
//
// Every fleet driver indexes per-query state by Query::id, so it throws
// std::invalid_argument unless every query's id equals its row position;
// otherwise std::logic_error on a server id other than -1 outside
// [0, num_servers), and then on a destination not hosting the query's
// model.  That precedence holds across chunks -- a bad query id anywhere
// beats a bad server id -- and each error names the first bad row, as a
// serial loop would.
TraceSplit SplitByAssignment(const workload::QueryTrace& trace,
                             std::span<const int> assignment,
                             const PlacementMap& placement, int jobs = 1);

}  // namespace pe::fleet
