// Additional scheduling baselines beyond the paper's FIFS, used by the
// ablation benches:
//
//  * JsqScheduler     -- join-shortest-queue by estimated wait time;
//    heterogeneity-aware about load but not about the query's own cost.
//  * GreedyFastestScheduler -- always minimizes Twait + Testimated,new,
//    with Testimated,new read from the arriving query's own model profile,
//    i.e. ELSA with Step A removed.  Isolates the contribution of ELSA's
//    "prefer the smallest partition with slack" rule (utilization-driven).
//
// Both are stateless (every decision reads fresh WorkerState snapshots),
// so the base-class reconfiguration hooks -- no-op OnReconfigure, orphans
// requeued like fresh arrivals -- are the correct behavior.
#pragma once

#include "profile/model_repertoire.h"
#include "sched/scheduler.h"

namespace pe::sched {

class JsqScheduler final : public Scheduler {
 public:
  using Scheduler::OnQueryArrival;
  using Scheduler::RequeueOrphan;

  int OnQueryArrival(const workload::Query& query,
                     const WorkerView& workers) override;
  bool UsesCentralQueue() const override { return false; }
  std::string name() const override { return "JSQ"; }
};

class GreedyFastestScheduler final : public Scheduler {
 public:
  // `repertoire` must outlive the scheduler.
  explicit GreedyFastestScheduler(const profile::ModelRepertoire& repertoire);

  using Scheduler::OnQueryArrival;
  using Scheduler::RequeueOrphan;

  int OnQueryArrival(const workload::Query& query,
                     const WorkerView& workers) override;
  bool UsesCentralQueue() const override { return false; }
  std::string name() const override { return "GreedyFastest"; }

 private:
  const profile::ModelRepertoire& repertoire_;
};

}  // namespace pe::sched
