// Elastic serving simulation (extension).
//
// Replays a (possibly drifting) query trace as ONE continuous
// InferenceServer run.  At each epoch boundary the RepartitionPolicy (the
// RepartitionController outside tests) inspects the TrafficEstimator and
// may order a live reconfiguration,
// which the simulation core models as a first-class event
// (InferenceServer::BeginReconfigure): in-flight queries drain on the old
// layout, queued work is carried over to the new workers, and dispatch is
// held for the drain + downtime window.  The queue build-up through a MIG
// reconfiguration is therefore simulated, not approximated away --
// queries delayed by a window are flagged in their records
// (QueryRecord::reconfig_stalls) and surface as the per-epoch and total
// `stalled` counts.
//
// A drift-free run (no reconfigurations) is bit-identical to a plain
// InferenceServer::Run of the same trace on the initial layout.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "online/repartition_controller.h"
#include "sched/scheduler.h"
#include "sim/server.h"
#include "workload/trace.h"

namespace pe::online {

// Builds the scheduler driving the whole continuous run (the simulator
// borrows it; ElasticServerSim keeps it alive).
using SchedulerFactory = std::function<std::unique_ptr<sched::Scheduler>()>;

struct EpochStats {
  std::size_t queries = 0;
  double p95_ms = 0.0;
  double violation_rate = 0.0;
  // Queries of this epoch whose queueing crossed a reconfiguration window.
  std::size_t stalled = 0;
  bool reconfigured = false;  // a reconfiguration began at this epoch
  std::vector<int> layout;    // instance sizes in effect (descending)
};

struct ElasticResult {
  std::vector<EpochStats> epochs;
  sim::ServerStats total;  // over all per-query records, no warmup cut
  int reconfigurations = 0;
};

// Default seed for the continuous elastic run (override via the
// constructor to make elastic experiments reproducible end-to-end).
inline constexpr std::uint64_t kDefaultElasticSeed = 0xE1A5;

class ElasticServerSim {
 public:
  // The continuous server serves `repertoire` (a single-model server
  // serves a one-entry repertoire) and the trace may interleave its
  // models: per-model estimates and ground truth come from the
  // repertoire, and the estimator tracks the live mix.
  // `queries_per_epoch` (>= 1) defines the epoch boundary in query count
  // (an arrival-rate-independent proxy for the paper's "given period of
  // time").  `seed` seeds the single run's RNG stream (latency noise).
  // `controller` is the RepartitionController (or a scripted
  // RepartitionPolicy).  `model_swap_cost` (>= 0) is charged whenever a
  // partition starts a query of a non-resident model, matching the mix
  // CLI/bench semantics.  Out-of-range values throw
  // std::invalid_argument.  `repertoire` must outlive the simulator.
  ElasticServerSim(RepartitionPolicy& controller,
                   const profile::ModelRepertoire& repertoire,
                   SchedulerFactory scheduler_factory, SimTime sla_target,
                   std::size_t queries_per_epoch = 2000,
                   std::uint64_t seed = kDefaultElasticSeed,
                   SimTime model_swap_cost = 0);

  ElasticResult Run(const workload::QueryTrace& trace);

 private:
  RepartitionPolicy& controller_;
  const profile::ModelRepertoire& repertoire_;
  SchedulerFactory scheduler_factory_;
  SimTime sla_target_;
  std::size_t queries_per_epoch_;
  std::uint64_t seed_;
  SimTime model_swap_cost_;
};

}  // namespace pe::online
