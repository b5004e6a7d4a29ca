// Deterministic fault injection for the fleet tier.
//
// A FaultPlan is a declarative, time-sorted schedule of fault events --
// server crashes and recoveries, single-worker (MIG-slice) failures,
// replica slowdowns -- resolved once, up front, from a preset name plus
// key=val overrides (the `--faults` CLI grammar, mirroring `--scenario`).
// Resolution is a pure function of (preset, overrides, placement shape,
// trace span, seed): the randomized presets draw from their own forked
// RNG stream, so the same spec and seed always yield the same schedule,
// independent of --jobs and of anything the simulation does later.
//
// The plan says *what breaks when*; `fleet/failover.h` owns what the
// serving stack does about it (health-aware rerouting, retries, shed
// accounting, degraded-capacity repartition).  An empty plan is the
// contract's identity element: SimulateWithFaults({}) delegates to the
// fault-free driver verbatim, record-by-record bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/args.h"
#include "common/sim_time.h"
#include "fleet/placement.h"

namespace pe::fleet {

enum class FaultKind {
  kServerCrash,    // every worker fails; queued + in-flight work is lost
  kServerRecover,  // every worker of a crashed server comes back
  kWorkerFail,     // one MIG slice fails (its queue reroutes in-engine)
  kWorkerRecover,  // that slice comes back
  kSlowdownBegin,  // replica executes `factor` x slower (estimates unchanged)
  kSlowdownEnd,    // back to nominal speed
};

const char* ToString(FaultKind kind);

// One scheduled incident.  `worker` only applies to the kWorker* kinds
// (engine worker index, i.e. position in the server's MIG layout);
// `factor` only to kSlowdownBegin.
struct FaultEvent {
  SimTime time = 0;
  FaultKind kind = FaultKind::kServerCrash;
  int server = 0;
  int worker = -1;
  double factor = 1.0;
};

// The resolved schedule plus the failover policy knobs that ride along
// with it (retry budget, end-to-end deadline, repartition switch).
struct FaultPlan {
  std::string name = "none";
  // Ascending by time; equal times keep schedule order (crash-instant
  // ties are applied in this order, deterministically).
  std::vector<FaultEvent> events;

  // Failover policy.  A lost attempt is retried up to `max_retries`
  // times with exponential backoff (backoff * 2^(attempt-1)) before the
  // query is marked failed, as it is when a retry instant would overflow
  // SimTime; `deadline` (0 = off) bounds the *end-to-end* latency
  // against the original arrival -- a retry that cannot finish in time
  // is shed instead of re-injected.
  int max_retries = 2;
  SimTime retry_backoff = MsToTicks(50.0);
  SimTime deadline = 0;

  // When true, a server crash triggers a degraded-capacity repartition:
  // surviving replicas of the dead server's models re-plan their MIG
  // layouts for the shifted traffic (see fleet::ReplanFn).
  bool repartition = true;
  // Reconfiguration downtime charged per repartition (BeginReconfigure).
  SimTime reconfig_downtime = 0;

  bool empty() const { return events.empty(); }

  // Throws std::invalid_argument on an out-of-range server id, a worker
  // index outside its server's layout, a non-positive slowdown factor,
  // or a negative event time.
  void Validate(const PlacementMap& placement) const;
};

// A parsed `--faults` reference: preset name + raw key=val overrides
// (same grammar as workload::ParseScenarioRef).
using FaultOptions = NamedRef;

// Parses "NAME" or "NAME:key=val,key=val,...".  Throws
// std::invalid_argument on an empty name or a malformed pair.  Preset
// validity is checked later, by ResolveFaultPlan.
inline FaultOptions ParseFaultRef(const std::string& ref) {
  return ParseNamedRef(ref, "faults");
}

// Resolves a preset + overrides into a concrete schedule over a trace
// spanning [0, span) ticks against `placement`'s fleet shape.
//
// Presets (all times scale with `span`; counts clamp to the fleet size):
//  * serverloss -- `count` (default 1) distinct servers crash at
//                  0.25*span; permanent unless down-ms > 0.
//  * flaky      -- `count` (default 4) single-worker incidents at random
//                  (server, worker, time) draws in [0.1, 0.9)*span, each
//                  healing after down-ms (default 5% of span).
//  * brownout   -- `count` (default 2) servers run `factor` (default 2.0)
//                  x slower across [0.3, 0.7]*span.
//  * cascade    -- `count` (default 3) staggered crashes from 0.25*span
//                  every stagger-ms (default 10% of span), each healing
//                  after down-ms (default 25% of span).
//
// Shared override keys: count, at-ms, down-ms, factor, stagger-ms,
// retries, backoff-ms, deadline-ms, repartition (0/1), downtime-ms.
// Throws std::invalid_argument on an unknown key or preset name, and,
// naming the key, on a value that is not a finite number >= 0, a count
// or retries that does not fit an int, an -ms duration or event time
// whose tick count overflows SimTime, or a factor that is not above 0.
//
// Deterministic: randomized draws come from Rng(Mix64(seed ^
// Mix64(0xFA17))), disjoint from every server and router stream.
FaultPlan ResolveFaultPlan(const FaultOptions& opts,
                           const PlacementMap& placement, SimTime span,
                           std::uint64_t seed);

// Fleet-level fault accounting, filled by fleet::SimulateWithFaults and
// surfaced through FleetStats / the fleet CLI's JSON report.  Terminal
// counts classify every injected query exactly once:
// completed + failed + shed == injected (pinned by the fuzz harness).
struct FaultSummary {
  bool faulted = false;        // true iff a non-empty plan ran
  std::uint64_t injected = 0;  // fleet-trace queries offered
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;   // every attempt died and no retry was possible
  std::uint64_t shed = 0;     // dropped: deadline, retry budget, or no
                              // healthy replica at (re)route time
  std::uint64_t retried = 0;  // re-injected attempts (not terminal)
  std::uint64_t rerouted = 0;   // attempts diverted off the original route
  std::uint64_t incidents = 0;  // fault events applied
  std::uint64_t repartitions = 0;  // degraded-capacity re-plans applied
  SimTime makespan = 0;
  // Per server: fraction of the makespan the server was up (1.0 when
  // never crashed).  Worker-level failures and slowdowns do not count
  // as downtime -- the server kept serving.
  std::vector<double> availability;
  // p99 latency over completions that *finished* inside an incident
  // window (crash-to-recover / slowdown / worker-outage union); 0 when
  // no completion landed in one.
  double p99_incident_ms = 0.0;
  std::uint64_t incident_completions = 0;
};

}  // namespace pe::fleet
