// Experiment harness for the paper's evaluation metrics.
//
//  * LatencyBoundedThroughput: the paper's Figure 12 metric -- the maximum
//    offered load (queries/sec) at which the p95 tail latency stays within
//    the bound.  Found by exponential growth + bisection over offered rate.
//  * TailLatencyCurve: the paper's Figure 11 -- (achieved throughput, p95)
//    points across an offered-load sweep.
//  * BestHomogeneous: the paper's GPU(max) -- the homogeneous design with
//    the highest latency-bounded throughput, found by brute force exactly
//    as the paper describes system architects would have to.
//
// Every entry point runs on one core::MixTestbed -- for the paper's
// figures, a one-model testbed on the model's Table-I server
// (core::Table1Config) -- with a fresh scheduler per simulation.
#pragma once

#include <string>
#include <vector>

#include "core/mix_runner.h"

namespace pe::core {

struct SearchOptions {
  std::size_t num_queries = 6000;
  std::uint64_t seed = 7;
  // Bisection iterations after bracketing; 10 gives <0.1% rate resolution.
  int iterations = 10;
  double initial_rate_qps = 4.0;
  double max_rate_qps = 1.0e6;
  // Worker threads for the fan-out entry points (TailLatencyCurve sweep
  // points, BestHomogeneous candidates, batch probes).  Each task runs a
  // fresh scheduler + seeded RNG, so any jobs value produces bit-identical
  // results to the serial loop; 1 keeps everything inline and thread-free.
  int jobs = 1;
};

struct ThroughputResult {
  double qps = 0.0;             // latency-bounded throughput
  double p95_at_qps_ms = 0.0;   // tail latency at that load
};

// Max offered rate whose p95 latency (ms) stays <= `tail_bound_ms`.
// Uses a fresh scheduler instance per probe run.  Throws
// std::invalid_argument naming the field for zero options.num_queries or a
// non-positive or non-finite bound (as do the entry points below, which
// search through it).
ThroughputResult LatencyBoundedThroughput(
    const MixTestbed& testbed, const partition::PartitionPlan& plan,
    SchedulerKind kind, double tail_bound_ms,
    const SearchOptions& options = SearchOptions{},
    sched::ElsaParams elsa = sched::ElsaParams{});

struct RatePoint {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p95_ms = 0.0;
  double mean_ms = 0.0;
  double violation_rate = 0.0;
  double utilization = 0.0;
};

// Sweeps offered load over `load_fractions` x the design's latency-bounded
// throughput and reports one point per load level.
std::vector<RatePoint> TailLatencyCurve(
    const MixTestbed& testbed, const partition::PartitionPlan& plan,
    SchedulerKind kind, const std::vector<double>& load_fractions,
    double tail_bound_ms, const SearchOptions& options = SearchOptions{});

struct HomogeneousChoice {
  int partition_gpcs = 0;   // the GPU(max) size
  double qps = 0.0;         // its latency-bounded throughput
};

// GPU(max)'s candidate sizes, in the order ties resolve (the paper excludes
// GPU(4) because 7 GPCs/GPU strand 3 GPCs per A100 under GPU(4)
// homogeneous partitioning).
inline constexpr int kHomogeneousSizes[] = {1, 2, 3, 7};

// Brute-force GPU(max): best homogeneous size among kHomogeneousSizes
// under the given scheduler, the first strictly greater winning.  The four
// candidate searches are independent and fan out across `options.jobs`
// threads.
HomogeneousChoice BestHomogeneous(
    const MixTestbed& testbed, SchedulerKind kind, double tail_bound_ms,
    const SearchOptions& options = SearchOptions{});

// One named (plan, scheduler) probe for the batch entry point below.
struct ProbeSpec {
  std::string label;
  partition::PartitionPlan plan;
  SchedulerKind kind = SchedulerKind::kFifs;
  sched::ElsaParams elsa;
};

// Latency-bounded throughput of many independent designs at once -- the
// unit of work behind the Fig. 12 / Table 1 sweeps.  Probes fan out across
// `options.jobs` threads; the result vector is index-aligned with `specs`
// and bit-identical to calling LatencyBoundedThroughput in a serial loop.
std::vector<ThroughputResult> LatencyBoundedThroughputBatch(
    const MixTestbed& testbed, const std::vector<ProbeSpec>& specs,
    double tail_bound_ms, const SearchOptions& options = SearchOptions{});

}  // namespace pe::core
