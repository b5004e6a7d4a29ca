// Fault-tolerant fleet serving: the driver that runs a Cluster under a
// FaultPlan.
//
// Three layers of defence, mirroring a production serving stack:
//  1. Health-aware routing.  The fault schedule is known up front (it is
//     a plan, not a surprise to the simulator), so the front tier routes
//     *around* planned downtime: queries arriving while their assigned
//     server is crashed divert to a healthy replica via a salted hash
//     (counted as rerouted), or are pre-shed when no replica is up.
//     This models a health-checked load balancer whose view is accurate
//     at arrival time; the crashed engine never sees arrivals inside
//     its down window.
//  2. Retry with budget + backoff.  Work lost *inside* a server at the
//     crash instant -- in-flight, queued, centrally parked, all with
//     arrival <= crash time -- comes back to the driver, which re-injects
//     each casualty as a fresh attempt on a healthy replica at
//     t + backoff * 2^(attempt-1), up to max_retries attempts beyond the
//     first.  A retry that would land past the end-to-end deadline (vs
//     the ORIGINAL arrival) or finds no healthy replica is shed; an
//     exhausted budget, or a retry instant past the end of SimTime,
//     marks the query failed.  Per-attempt engine
//     deadlines (ServerConfig::deadline) shed queue-stuck work locally.
//  3. Degraded-capacity repartition.  On a crash (and again on
//     recovery), surviving replicas of the impacted models re-plan their
//     MIG layouts through the `ReplanFn` callback -- wired to
//     mixed-PARIS by core::FleetTestbed::MakeReplanFn -- via
//     BeginReconfigure, absorbing the shifted traffic.
//
// Determinism and threading: the fault schedule is applied serially and
// in schedule order on the calling thread, and so are routing, the
// replan hook, and marking the outcomes of retry attempts (a query's
// retries may land on any server).  The rest runs on up to `jobs`
// threads.  Per 64k-row chunk of the trace: the health patch (each chunk
// counts its reroutes, summed in chunk order), the split, and the final
// count of each query's outcome (the lowest lost query still throws).
// Per server: building each engine and injecting its sub-trace, advancing
// every engine to the next fault or retry instant, injecting the retries
// due at an instant (grouped by target server, in the order they were
// scheduled), draining, copying its global ids into its precomputed slice
// of the result, and marking its routed attempts' outcomes (the split
// partitions the trace rows, so no two servers mark one query).  Each
// task is a pure function of its index over disjoint state, so the result
// is bit-identical at any --jobs count and across repeated runs with the
// same (trace, plan, seed).  An EMPTY plan delegates to Cluster::Simulate
// verbatim -- record-by-record bit-identical to the fault-free driver
// (pinned by fleet_failover_test).
//
// Memory: each query's inputs live only in the trace, and each routed
// query's global id only in the split's id list; a server keeps just its
// retries' ids, which the assembly joins to the split's after the drain.
// The routing assignment dies once split.  What the driver learns of a
// query's fate is one byte of outcome bits.  Each engine reserves records
// for its routed rows plus 1/64 of them for the retries it may take.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "fleet/cluster.h"
#include "fleet/fault.h"
#include "workload/trace.h"

namespace pe::fleet {

// Degraded-capacity repartition hook: given a surviving server and the
// currently-down server set (ascending ids; empty after full recovery),
// returns the MIG layout the server should reconfigure to -- or an empty
// vector for "keep the current layout".  Must be deterministic.  The
// driver calls it serially, from the calling thread, once per survivor
// that shares a model with a down server (or still runs a degraded
// layout) after every crash and recovery, so a hook may memoize by its
// inputs: core::FleetTestbed::MakeReplanFn re-plans with mixed-PARIS at
// full/surviving-scaled shares, counts surviving replicas once per down
// set, and plans each distinct degraded layout once.  The fleet module
// cannot depend on the partition planner (layering), so
// core::FleetTestbed injects it from above.
using ReplanFn =
    std::function<std::vector<int>(int server, const std::vector<int>& down)>;

// The instant of retry `attempt` (1-based) of a query lost at `t`:
// t + backoff * 2^(attempt - 1), computed without overflow, or nullopt
// when it does not fit SimTime.  Throws std::invalid_argument for a
// negative `t` or `backoff`, or an `attempt` below 1.
std::optional<SimTime> RetryInstant(SimTime t, SimTime backoff, int attempt);

// The fault schedule, digested for time queries.  Servers change up/down
// state only at crash and recover instants, so those instants cut time
// into epochs, and each epoch stores its up set and, per model, the
// healthy replicas in PlacementMap::Replicas order: a health question is
// a binary search over the instants plus a table read.  A server is down
// over [crash, matching recover), open-ended when never recovered; a
// crash of a down server and a recover of an up one change nothing.
// Worker failures and slowdowns leave the server up but, like crashes,
// open incident windows, merged into one union for the
// p99-during-incident metric.
class HealthView {
 public:
  // `plan` must be sorted by time (FaultPlan::Validate checks it) and
  // name servers of `placement`; throws std::invalid_argument otherwise.
  HealthView(const FaultPlan& plan, const PlacementMap& placement);

  // False iff `server` is inside a crash window at `t`.
  bool IsUp(int server, SimTime t) const {
    const auto s = static_cast<std::size_t>(server);
    return up_[Epoch(t) * num_servers_ + s] != 0;
  }

  // The replicas of `model` up at `t`, in Replicas(model) order.
  std::span<const int> Healthy(int model, SimTime t) const {
    const auto m = static_cast<std::size_t>(model);
    const std::size_t k = Epoch(t) * num_models_ + m;
    return {healthy_.data() + healthy_offsets_[k],
            healthy_offsets_[k + 1] - healthy_offsets_[k]};
  }

  // Total crashed ticks of `server` clipped to [0, horizon).
  SimTime DownTicks(int server, SimTime horizon) const;

  // True iff `t` lies inside the union of all incident windows.
  bool InIncident(SimTime t) const;

 private:
  // Epoch 0 runs until instants_[0]; epoch k >= 1 starts at
  // instants_[k - 1] and holds the state after that instant's events.
  std::size_t Epoch(SimTime t) const;

  std::size_t num_servers_ = 0;
  std::size_t num_models_ = 0;
  std::vector<SimTime> instants_;
  // Per epoch: 1 per up server, and each model's healthy replicas as
  // spans of healthy_ bounded by healthy_offsets_.
  std::vector<std::uint8_t> up_;
  std::vector<int> healthy_;
  std::vector<std::size_t> healthy_offsets_;
  // Merged union over every fault kind, ascending and disjoint.
  std::vector<std::pair<SimTime, SimTime>> incidents_;
};

// Runs `trace` on `cluster` under `plan`.  The FleetResult carries every
// attempt's record (retries appear as extra per-server records whose
// global ids repeat) plus the filled FaultSummary; FleetResult::Stats
// excludes casualties from every latency figure and reports them through
// the failed/shed counters.  Throws what Cluster::Simulate throws, plus
// std::invalid_argument on a plan that does not validate against the
// cluster's placement, and std::logic_error naming the query if one ends
// with no record without having been shed (a lost query).
FleetResult SimulateWithFaults(const Cluster& cluster,
                               const workload::QueryTrace& trace,
                               const FaultPlan& plan, int jobs,
                               const ReplanFn& replan = {});

}  // namespace pe::fleet
