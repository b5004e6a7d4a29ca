// Shadow-view check: a test-only Scheduler decorator, attached to the
// server after construction, re-derives every arrival and orphan
// consultation from scratch.  It rebuilds the worker snapshots directly
// from server.workers(), checks the server's live view against them
// (Get, WaitTicks and the idle index behind MaxGpcsIdleWorker), and asks a
// second scheduler instance -- fed a plain VectorWorkerView, which is not
// stable(), so ELSA scans in full with nothing cached -- for its own
// decision.  Over the engine scenario grid this checks the live view's
// caching, the idle index, and ELSA's cached candidate order and
// size-class skips decision by decision.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine_scenarios.h"
#include "sched/scheduler.h"
#include "sim/server.h"

namespace pe::testing {
namespace {

struct Tally {
  int arrivals = 0;
  int orphans = 0;
  int mismatches = 0;
  std::string first_mismatch;
};

class ShadowScheduler final : public sched::Scheduler {
 public:
  ShadowScheduler(std::unique_ptr<sched::Scheduler> live,
                  std::unique_ptr<sched::Scheduler> shadow, Tally& tally)
      : live_(std::move(live)), shadow_(std::move(shadow)), tally_(tally) {}

  void Attach(const sim::InferenceServer& server) { server_ = &server; }

  using Scheduler::OnQueryArrival;
  using Scheduler::RequeueOrphan;

  int OnQueryArrival(const workload::Query& query,
                     const sched::WorkerView& workers) override {
    ++tally_.arrivals;
    return Check(query, workers, /*orphan=*/false);
  }
  int RequeueOrphan(const workload::Query& query,
                    const sched::WorkerView& workers) override {
    ++tally_.orphans;
    return Check(query, workers, /*orphan=*/true);
  }
  bool UsesCentralQueue() const override { return live_->UsesCentralQueue(); }
  void OnReconfigure(
      const std::vector<sched::WorkerState>& old_workers,
      const std::vector<sched::WorkerState>& new_workers) override {
    live_->OnReconfigure(old_workers, new_workers);
    shadow_->OnReconfigure(old_workers, new_workers);
  }
  std::string name() const override { return live_->name(); }

 private:
  void Mismatch(const workload::Query& query, const std::string& what) {
    if (tally_.mismatches++ == 0) {
      std::ostringstream out;
      out << "query " << query.id << " at t=" << server_->now() << ": "
          << what;
      tally_.first_mismatch = out.str();
    }
  }

  int Check(const workload::Query& query, const sched::WorkerView& view,
            bool orphan) {
    // The independent snapshot vector, straight from the workers.
    snapshots_.clear();
    for (const sim::PartitionWorker& w : server_->workers()) {
      snapshots_.push_back(w.Snapshot(server_->now()));
    }
    if (view.size() != snapshots_.size()) {
      Mismatch(query, "view size " + std::to_string(view.size()) + " vs " +
                          std::to_string(snapshots_.size()) + " workers");
    } else {
      for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        const sched::WorkerState& got = view.Get(i);
        const sched::WorkerState& want = snapshots_[i];
        if (got.index != want.index || got.gpcs != want.gpcs ||
            got.idle != want.idle || got.wait_ticks != want.wait_ticks ||
            got.queue_length != want.queue_length ||
            got.resident_model != want.resident_model ||
            got.failed != want.failed) {
          Mismatch(query, "Get(" + std::to_string(i) + ") is stale");
        }
        if (view.WaitTicks(i) != want.wait_ticks) {
          Mismatch(query, "WaitTicks(" + std::to_string(i) + ") is stale");
        }
      }
    }
    // The idle index against the O(W) scan it replaces: largest idle
    // partition, lowest index among ties.
    int scan = sched::kNoAssignment;
    int scan_gpcs = -1;
    for (const sched::WorkerState& w : snapshots_) {
      if (w.idle && w.gpcs > scan_gpcs) {
        scan = w.index;
        scan_gpcs = w.gpcs;
      }
    }
    if (view.MaxGpcsIdleWorker() != scan) {
      Mismatch(query, "MaxGpcsIdleWorker " +
                          std::to_string(view.MaxGpcsIdleWorker()) +
                          " vs scan " + std::to_string(scan));
    }
    const sched::VectorWorkerView plain(snapshots_);
    const int want = orphan ? shadow_->RequeueOrphan(query, plain)
                            : shadow_->OnQueryArrival(query, plain);
    const int got = orphan ? live_->RequeueOrphan(query, view)
                           : live_->OnQueryArrival(query, view);
    if (got != want) {
      Mismatch(query, std::string(orphan ? "orphan" : "arrival") +
                          " decision " + std::to_string(got) +
                          " vs shadow " + std::to_string(want));
    }
    return got;
  }

  std::unique_ptr<sched::Scheduler> live_;
  std::unique_ptr<sched::Scheduler> shadow_;
  Tally& tally_;
  const sim::InferenceServer* server_ = nullptr;
  std::vector<sched::WorkerState> snapshots_;
};

class ShadowSource final : public SchedulerSource {
 public:
  std::unique_ptr<sched::Scheduler> Make(
      const SchedulerFactory& make) override {
    auto scheduler = std::make_unique<ShadowScheduler>(make(), make(), tally);
    pending_ = scheduler.get();
    return scheduler;
  }
  void Attach(sim::InferenceServer& server) override {
    pending_->Attach(server);
  }

  Tally tally;

 private:
  ShadowScheduler* pending_ = nullptr;
};

TEST(ShadowView, ScenarioGridAgreesDecisionByDecision) {
  int orphans = 0;
  for (const GridCell& cell : ScenarioGrid()) {
    ShadowSource source;
    const auto records = RunGridCell(cell, source);
    EXPECT_EQ(source.tally.mismatches, 0)
        << cell.Label() << ", first: " << source.tally.first_mismatch;
    // Every arrival passes the scheduler (reconfiguration windows hold
    // some and re-offer them later, so consultations can only exceed the
    // query count).
    EXPECT_GE(source.tally.arrivals, static_cast<int>(records.size()))
        << cell.Label();
    orphans += source.tally.orphans;
  }
  // The reconfiguring cells carry queued work across layouts.
  EXPECT_GT(orphans, 0);
}

TEST(ShadowView, OverloadedElsaAgreesDecisionByDecision) {
  // SLAs too tight to meet push most arrivals past Step A into Step B and
  // its size-class skips, which the 40 ms grid seldom reaches.
  for (const double sla_ms : {2.0, 6.0}) {
    for (const bool reconfigure : {false, true}) {
      const GridCell cell{Sched::kElsa, 3, reconfigure, 5, sla_ms};
      ShadowSource source;
      (void)RunGridCell(cell, source);
      EXPECT_EQ(source.tally.mismatches, 0)
          << cell.Label() << " sla " << sla_ms
          << " ms, first: " << source.tally.first_mismatch;
    }
  }
}

TEST(ShadowView, OrderingScenariosAgreeDecisionByDecision) {
  for (const NamedScenario& scenario : OrderingScenarios()) {
    ShadowSource source;
    (void)scenario.run(source);
    EXPECT_EQ(source.tally.mismatches, 0)
        << scenario.name << ", first: " << source.tally.first_mismatch;
    EXPECT_GT(source.tally.arrivals, 0) << scenario.name;
  }
}

}  // namespace
}  // namespace pe::testing
