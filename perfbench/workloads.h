// The benchmark's three workloads.  Each drives the library through its
// public API only: a testbed build (the timed set-up), then one pipeline
// pass per call -- trace generation, [route + split], simulate, stats
// reduction, report -- with its records checked afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fault.h"
#include "harness.h"

namespace perfbench {

struct PassOptions {
  std::uint64_t seed = 1;
  std::size_t queries = 0;
  int jobs = 1;
  Tracer* tracer = nullptr;  // non-null: record spans, time the scheduler
  bool tamper = false;       // corrupt one record before the checks
  std::string report_path;   // where the pass writes its JSON report
};

// Per-layer timings of one traced pass (zero in untraced passes).
struct Layers {
  double root_s = 0.0;  // pipeline span: generation through report
  double gen_s = 0.0;
  double split_s = 0.0;
  double simulate_s = 0.0;
  double simulate_self_s = 0.0;  // not covered by server or replan spans
  double sim_cpu_s = 0.0;
  double stats_s = 0.0;
  double stats_cpu_s = 0.0;
  double report_s = 0.0;
  double failover_self_s = 0.0;
  double replan_s = 0.0;
  std::uint64_t replans = 0;
  double coverage = 0.0;  // share of root_s its child spans cover
  SchedCounters sched;
  std::vector<double> server_s;  // per-server engine spans
};

struct PassResult {
  double wall_s = 0.0;  // generation through report
  double cpu_s = 0.0;   // process CPU over the same interval
  Outcome outcome;
  double offered_qps = 0.0;
  double utilization = 0.0;
  double model_swap_share = 0.0;
  double route_imbalance = 0.0;  // max / mean queries per server
  int partitions = 0;
  pe::fleet::FaultSummary fault;
  Layers layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual std::size_t default_queries() const = 0;
  virtual int jobs() const = 0;
  // Offered load of the whole system, queries per simulated second.
  virtual void set_rate_qps(double rate) = 0;
  // Steady workloads must show no growing backlog.
  virtual bool stationary() const = 0;
  // Prefix length for the jobs=1 vs jobs=nproc record comparison; 0 when
  // the workload runs on one thread.
  virtual std::size_t identity_prefix() const = 0;

  // Builds a testbed from scratch: profiling, planning, wiring.  The
  // first build serves every pass; later ones only sample set-up time and
  // are handed back, so the caller frees them outside its timer.
  virtual std::shared_ptr<void> Build() = 0;
  // One-off wiring the traced passes need (outside every timing).
  virtual void PrepareTraced() = 0;
  virtual PassResult Run(const PassOptions& options) = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench
