// Harness pieces shared by the benchmark binary and its self-tests:
// clocks and process counters, exact quantiles, a log-bucketed duration
// histogram, the per-run output checks, the result line, the span
// recorder behind the traced run, and a forwarding scheduler decorator
// that times every scheduling decision from outside the library.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "sched/scheduler.h"
#include "sim/metrics.h"
#include "workload/trace.h"

namespace perfbench {

// ---- Clocks and process counters --------------------------------------

double WallNow();        // steady clock, seconds
double ProcessCpuSec();  // user + system CPU of the whole process
double ThreadCpuSec();   // CPU of the calling thread
double PeakRssMb();      // high-water resident set of the process
int Nproc();             // CPUs this process may run on

// ---- Statistics --------------------------------------------------------

// The q-quantile (q in [0, 1]) with linear interpolation between the
// closest ranks, by exact selection.  0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Log-bucketed histogram of non-negative integer durations: exact below
// 64, then 32 buckets per power of two (relative error under 3.2%).
class NsHistogram {
 public:
  void Add(std::uint64_t v);
  void Merge(const NsHistogram& other);
  std::uint64_t count() const { return count_; }
  // Upper edge of the bucket holding the q-quantile sample.
  double Quantile(double q) const;

 private:
  static std::size_t Bucket(std::uint64_t v);
  static std::uint64_t UpperEdge(std::size_t bucket);
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

// ---- Output checks -----------------------------------------------------

// One server's record stream and the fleet-level query ids its local ids
// map to (empty for a single server, whose local ids are the trace ids).
struct RecordView {
  const std::vector<pe::sim::QueryRecord>* records = nullptr;
  std::span<const std::uint64_t> gids;
};

// Terminal counts the library reported, for the conservation check.
struct ReportedCounts {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
};

// What one pipeline pass produced, re-derived from its records.
struct Outcome {
  std::uint64_t injected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t post_warmup = 0;  // injected queries past the warmup cut
  std::uint64_t within_sla = 0;   // ... that completed within the SLA
  // Latency of post-warmup completions, counted from the scheduled
  // arrival in the trace (retries included), in ms.
  std::vector<double> latency_ms;
  // Mean queue delay (start - scheduled arrival) of completions whose
  // query sits in the middle / last tenth of the arrival order.
  double queue_mid_ms = 0.0;
  double queue_last_ms = 0.0;
  std::vector<std::uint64_t> server_hashes;
  std::vector<std::string> violations;  // empty when every check passed

  bool ok() const { return violations.empty(); }
  std::uint64_t Hash() const;  // over every server hash, in server order
};

// Runs the per-record checks -- causal timestamps, at most one completion
// per query, every query accounted for -- and the conservation check
// completed + failed + shed == injected, against `reported` when the
// library reports its own terminal counts.  `warmup` is the leading
// fraction of the arrival order left out of the latency figures.
Outcome Evaluate(const pe::workload::QueryTrace& trace,
                 std::span<const RecordView> servers, pe::SimTime sla,
                 double warmup, const ReportedCounts* reported);

// Adds a violation unless the last tenth's mean queue delay stays within
// `tolerance` (relative) plus `slack_ms` of the middle tenth's.
void CheckStationary(Outcome& outcome, double tolerance, double slack_ms);

// FNV-1a over every field that defines a record stream.
std::uint64_t HashRecords(const std::vector<pe::sim::QueryRecord>& records);

// ---- Result line -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The benchmark's last stdout line: one JSON object with exactly the keys
// correct, attempted, failed and metrics.  Values print with every digit
// (%.17g); a non-finite value prints as null.
std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const std::vector<Metric>& metrics);

// ---- Spans -------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;     // index of the parent span, -1 for a root
  int tid = 0;         // small per-thread index
};

// Keeps spans in memory; Chrome trace-event JSON on demand.  Thread-safe.
class Tracer {
 public:
  Tracer();

  double Now() const;
  int Open(std::string name, int parent);
  void Close(int id);
  int Record(std::string name, double start, double end, int parent);

  double Duration(int id) const;
  // Duration minus the part of the interval its direct children cover.
  double SelfTime(int id) const;
  std::string ChromeJson() const;

 private:
  int ThreadIndex();  // caller holds mu_
  double epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
};

// ---- Scheduler decorator -----------------------------------------------

struct SchedCounters {
  std::uint64_t arrivals = 0;
  std::uint64_t held = 0;  // arrivals left in the central queue
  std::uint64_t orphans = 0;
  std::uint64_t reconfigures = 0;
  std::uint64_t decide_ns = 0;  // arrival + orphan decisions
  NsHistogram hist;

  void Merge(const SchedCounters& other);
};

// Collects what every TimedScheduler saw.  With `server_spans`, each
// decorator's lifetime is recorded as a span under `parent`: in the batch
// simulation paths a server's scheduler lives exactly as long as its engine.
class SchedProbe {
 public:
  SchedProbe(Tracer* tracer, int parent, bool server_spans)
      : tracer_(tracer), parent_(parent), server_spans_(server_spans) {}

  void Flush(int server, const SchedCounters& counters, double start,
             double end);
  SchedCounters totals() const;
  std::vector<double> server_seconds() const;
  double Now() const { return tracer_->Now(); }

 private:
  Tracer* tracer_;
  int parent_;
  bool server_spans_;
  mutable std::mutex mu_;
  SchedCounters totals_;
  std::vector<double> server_seconds_;
};

// Forwards every call to `inner`, timing arrival and orphan decisions.
// Decisions are untouched, so records are identical with or without it.
class TimedScheduler final : public pe::sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<pe::sched::Scheduler> inner,
                 SchedProbe& probe, int server);
  ~TimedScheduler() override;
  TimedScheduler(const TimedScheduler&) = delete;
  TimedScheduler& operator=(const TimedScheduler&) = delete;

  using pe::sched::Scheduler::OnQueryArrival;
  using pe::sched::Scheduler::RequeueOrphan;
  int OnQueryArrival(const pe::workload::Query& query,
                     const pe::sched::WorkerView& workers) override;
  bool UsesCentralQueue() const override;
  void OnReconfigure(
      const std::vector<pe::sched::WorkerState>& old_workers,
      const std::vector<pe::sched::WorkerState>& new_workers) override;
  int RequeueOrphan(const pe::workload::Query& query,
                    const pe::sched::WorkerView& workers) override;
  std::string name() const override;

 private:
  std::unique_ptr<pe::sched::Scheduler> inner_;
  SchedProbe& probe_;
  int server_;
  double start_;
  SchedCounters counters_;
};

}  // namespace perfbench
