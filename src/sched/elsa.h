// ELSA: ELastic Scheduling Algorithm (paper Section IV-C, Algorithm 2).
//
// For an arriving query, ELSA predicts the SLA slack it would have on each
// partition (Eq. 1-2):
//
//   Twait      = sum(Testimated,queued) + Tremaining,current
//   SLA slack  = SLAtarget - alpha * (Twait + beta * Testimated,new)
//
// Step A: walk partitions in ascending size order and bind the query to the
// first one whose predicted slack is positive -- preferring small partitions
// maximizes GPU utilization when slack allows.
// Step B: if no partition can meet the SLA, bind to the partition with the
// minimum completion time (Twait + Testimated,new), evacuating the doomed
// query as fast as possible so it disturbs other queries the least.
//
// Testimated comes from the one-time profiled lookup table; Twait comes in
// precomputed through WorkerState (the server derives it from each queued
// query's own model profile plus the in-flight query's elapsed timestamp).
//
// Decision by wait threshold: within one equal-size run of partitions,
// Testimated,new is the same for every candidate, and slack only falls as
// Twait grows (alpha >= 0), so "positive slack" is exactly "Twait <= T"
// for one integer threshold T per run.  T is a pure function of (model,
// partition size, batch) and of the scheduler's fixed parameters, so ELSA
// keeps a threshold table: per key, Testimated,new, T(0) and T(swap
// charge), each derived once -- from an algebraic guess corrected by
// evaluating the Eq. 2 expression itself -- on the key's first arrival
// and never invalidated (the repertoire's profiles never change).  The
// table keeps one row of batches per (model, profiled size), allocated
// on its first use, so sizes no model profiles and rows no arrival reads
// cost nothing.  A key off the table (a batch past the repertoire's
// largest, a size no model profiles) is derived on every call, exactly
// as a table fill would be, and so throws what the profile lookup
// throws.  Step A, the locality tie-break and Step B read the
// table; each asks the WorkerView for the leftmost worker at or under a
// threshold (FirstWaitAtMost), and Step B takes each run's minimum wait
// (MinWait) and finds the leftmost worker whose completion ties it the
// same way.  Every comparison is the double the per-candidate expression
// would produce, so decisions are those of the literal scan -- which
// tests/elsa_oracle.h implements and the shadow-view test compares
// against decision by decision.  A stable() view is already in (gpcs,
// index) order, so its equal-size runs are computed once per layout; an
// ad-hoc view is copied and sorted per call.
//
// Multi-model serving: ELSA reads every Testimated,new from the *arriving
// query's* model profile in its ModelRepertoire (a one-entry repertoire is
// the paper's single-model server), and -- when `locality_tie_sec` is
// enabled -- prefers a positive-slack partition whose resident model
// already matches the query whenever its predicted completion ties the
// default choice within the threshold, avoiding a model-swap penalty at no
// predicted SLA cost.  FIFS remains model-oblivious as the baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "profile/model_repertoire.h"
#include "sched/scheduler.h"

namespace pe::sched {

// Every field must be finite and non-negative; the constructors throw
// std::invalid_argument naming the first field that is not.
struct ElsaParams {
  // Tuning knobs of Eq. 2 ("configurable parameters we employ to tune the
  // SLA slack predictor"); 1.0/1.0 makes the predictor exact under
  // noise-free execution.
  double alpha = 1.0;
  double beta = 1.0;
  // Model-locality tie-break window: a swap-free partition (resident
  // model already matching the query, or never loaded) wins over the
  // default Step A choice when its predicted completion is within this
  // many seconds of the default's.  0 (default) disables the tie-break,
  // reproducing the paper's model-oblivious Algorithm 2 exactly.
  double locality_tie_sec = 0.0;
  // Pending model-swap charge folded into the slack predictor: a
  // candidate whose resident model differs from the arriving query's
  // pays this many extra seconds inside Twait, i.e.
  //   slack      = SLA - alpha * (Twait + Tswap + beta * Tnew)
  //   completion = Twait + Tswap + Tnew
  // Set it to the simulator's ServerConfig::model_swap_cost (in seconds)
  // so the predictor stays honest when swaps are expensive: without the
  // term, Step A systematically over-estimates the slack of swap-needing
  // partitions and binds doomed queries to them.  0 (default) restores
  // the swap-oblivious predictor bit-for-bit (the added term is exactly
  // +0.0), which is what engine_golden_test pins.
  double swap_cost_sec = 0.0;
};

class ElsaScheduler final : public Scheduler {
 public:
  // Testimated lookups route through the arriving query's model profile.
  // `repertoire` must be non-empty and outlive the scheduler.
  // `sla_target` is the SLA target (Section V: N x the max-batch latency
  // on GPU(7)) and must be positive.
  ElsaScheduler(const profile::ModelRepertoire& repertoire,
                SimTime sla_target, ElsaParams params = ElsaParams{});

  using Scheduler::OnQueryArrival;
  using Scheduler::RequeueOrphan;

  int OnQueryArrival(const workload::Query& query,
                     const WorkerView& workers) override;
  bool UsesCentralQueue() const override { return false; }
  // Reconfiguration hooks: ELSA's cross-call state is the threshold table,
  // which depends on no layout, and the per-layout list of equal-size
  // runs, which is keyed on the stable view's layout_version() and
  // self-invalidates when the server swaps layouts; the default
  // RequeueOrphan (re-run Step A/B against the new layout) is exactly the
  // right policy for orphans -- so the base-class defaults apply.
  std::string name() const override { return "ELSA"; }

  // Predicted slack (Eq. 2) of scheduling `batch` of `model_id` on a
  // worker (exposed for tests).
  double SlackSec(const WorkerState& worker, int model_id, int batch) const;

 private:
  // One equal-size run of view positions, [begin, end), and the
  // threshold table's row index for its size (-1: no model profiles it).
  struct SizeRun {
    int gpcs = 0;
    int size_row = -1;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  // One threshold-table entry: Testimated,new of a (model, partition
  // size, batch) key and its slack thresholds.
  struct Thresholds {
    // Marks an entry not yet filled; a threshold is never below -1.
    static constexpr SimTime kUnfilled = -2;

    double tnew = 0.0;
    SimTime free_limit = kUnfilled;  // T(0)
    SimTime swap_limit = kUnfilled;  // T(swap_cost_sec)
  };

  void Validate() const;
  // Eq. 2 and the completion time at one wait, in SlackSec's operand
  // order: every decision compares these exact doubles.
  double Slack(SimTime wait, double swap, double tnew) const;
  static double Completion(SimTime wait, double swap, double tnew);
  // T(swap): the largest wait with positive slack, -1 if none.
  SimTime SlackThreshold(double tnew, double swap) const;
  // The largest wait whose swap-free completion is at most `bound`, -1 if
  // none.
  static SimTime CompletionThreshold(double tnew, double bound);
  // The entry of (model_id, gpcs, batch): derived from the profile here.
  Thresholds Derive(int model_id, int gpcs, int batch) const;
  // The table's entry for a query of `model_id` and `batch` on `run`,
  // filled on first use; a key off the table is derived on every call.
  Thresholds ThresholdsAt(int model_id, const SizeRun& run, int batch);

  // Splits a (gpcs, index)-ordered view into runs_.
  void BuildRuns(const WorkerView& view);
  // Algorithm 2 over a (gpcs, index)-ordered view whose runs_ are built;
  // returns a view position, or -1 when every worker is failed.
  int Decide(const workload::Query& query, const WorkerView& view);
  // The locality tie-break: the first swap-free worker with positive
  // slack whose completion is at most `bound`, or -1.
  int FirstLocalWorker(const workload::Query& query, const WorkerView& view,
                       double bound);

  const profile::ModelRepertoire& repertoire_;
  SimTime sla_target_;
  double sla_sec_;
  ElsaParams params_;

  // The threshold table: per (model, profiled partition size), one row
  // over batches [0, table_batches_), allocated on the row's first use.
  // size_row_[gpcs] is the row index of a size some model profiles, -1
  // for any other size; rows_ is model-major over those sizes.
  int table_models_ = 0;
  int table_sizes_ = 0;
  int table_batches_ = 0;
  std::vector<int> size_row_;
  std::vector<std::unique_ptr<Thresholds[]>> rows_;

  // Cached across arrivals while a stable view's layout_version() holds.
  std::vector<SizeRun> runs_;
  std::uint64_t runs_version_ = 0;
  bool runs_cached_ = false;
  // An ad-hoc view's snapshots, sorted by (gpcs, index).
  std::vector<WorkerState> sorted_;
};

}  // namespace pe::sched
