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
// Hot-path mechanics: Testimated lookups go through a CompiledProfile
// (dense arrays instead of map + lower_bound), the size-ascending
// candidate order is computed once per layout and cached against a stable
// WorkerView's layout_version() instead of re-sorting every arrival,
// Testimated,new is computed once per distinct partition size per arrival
// (it depends only on (model, batch, gpcs)), and each candidate's
// slack/completion prediction is computed at most once per arrival (Step
// A, the locality tie-break, and Step B share the memo).  The cached
// order groups workers into contiguous equal-size runs; when even a
// zero-wait worker of a size class has non-positive slack, the whole
// class is skipped -- valid because slack is monotone non-increasing in
// Twait under IEEE rounding (for alpha >= 0), so every member would have
// failed the same test.  None of this changes any decision: compiled
// values are bit-identical by construction, and the shadow-view test
// compares every decision with a full, uncached scan.
//
// Multi-model extension: constructed from a ModelRepertoire, ELSA routes
// every Testimated,new lookup through the *arriving query's* model profile,
// and -- when `locality_tie_sec` is enabled -- prefers a positive-slack
// partition whose resident model already matches the query whenever its
// predicted completion ties the default choice within the threshold,
// avoiding a model-swap penalty at no predicted SLA cost.  FIFS remains
// model-oblivious as the baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "profile/compiled_profile.h"
#include "profile/model_repertoire.h"
#include "profile/profile_table.h"
#include "sched/scheduler.h"

namespace pe::sched {

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
  // Single-model form: `profile` must outlive the scheduler.  `sla_target`
  // is the model's SLA target (Section V: N x the max-batch latency on
  // GPU(7)).
  ElsaScheduler(const profile::ProfileTable& profile, SimTime sla_target,
                ElsaParams params = ElsaParams{});

  // Multi-model form: Testimated lookups route through the arriving
  // query's model profile.  `repertoire` must outlive the scheduler.
  ElsaScheduler(const profile::ModelRepertoire& repertoire,
                SimTime sla_target, ElsaParams params = ElsaParams{});

  using Scheduler::OnQueryArrival;
  using Scheduler::RequeueOrphan;

  int OnQueryArrival(const workload::Query& query,
                     const WorkerView& workers) override;
  bool UsesCentralQueue() const override { return false; }
  // Reconfiguration hooks: ELSA's only cross-call state is the per-layout
  // candidate order, which is keyed on the stable view's layout_version()
  // and self-invalidates when the server swaps layouts, and the default
  // RequeueOrphan (re-run Step A/B against the new layout) is exactly the
  // right policy for orphans -- so the base-class defaults apply.
  std::string name() const override { return "ELSA"; }

  SimTime sla_target() const { return sla_target_; }
  const ElsaParams& params() const { return params_; }

  // Predicted slack of scheduling `batch` of model 0 on a worker (exposed
  // for tests and for the slack-visualisation example).
  double SlackSec(const WorkerState& worker, int batch) const;

  // Model-aware form of the slack predictor.
  double SlackSec(const WorkerState& worker, int model_id, int batch) const;

 private:
  // Rebuilds the (gpcs, index)-ascending candidate order unless it is
  // already cached for this view's layout; also sizes the per-arrival
  // memo arrays.
  void RefreshCandidates(const WorkerView& workers);

  profile::CompiledProfile compiled_;
  SimTime sla_target_;
  ElsaParams params_;

  // Candidate order (view positions, ascending by (gpcs, index)), cached
  // across arrivals while the stable view's layout_version() holds,
  // grouped into contiguous equal-gpcs runs for the size-class skip.
  struct SizeRun {
    int gpcs = 0;
    std::uint32_t begin = 0;  // [begin, end) into order_
    std::uint32_t end = 0;
  };
  std::vector<std::uint32_t> order_;
  std::vector<SizeRun> runs_;
  std::uint64_t order_version_ = 0;
  bool order_cached_ = false;

  // Per-arrival memo of the predictor terms, stamped by arrival so the
  // arrays never need clearing.  tnew is keyed by gpcs (the only variable
  // of Testimated,new within one arrival); slack/completion by candidate.
  std::uint64_t arrival_stamp_ = 0;
  std::vector<double> tnew_memo_;
  std::vector<std::uint64_t> tnew_stamp_;
  std::vector<double> twait_memo_;
  std::vector<std::uint64_t> twait_stamp_;
  std::vector<double> slack_memo_;
  std::vector<double> completion_memo_;
  std::vector<std::uint64_t> slack_stamp_;
  std::vector<std::uint64_t> completion_stamp_;
};

}  // namespace pe::sched
