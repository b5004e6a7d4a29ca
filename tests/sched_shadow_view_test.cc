// Shadow-view check: a test-only Scheduler decorator, attached to the
// server after construction, re-derives every arrival and orphan
// consultation from scratch.  It rebuilds the worker snapshots directly
// from server.workers(), checks the server's live view against them (Get,
// the wait index behind FirstWaitAtMost/MinWait, and the idle index
// behind MaxGpcsIdleWorker), and asks two independent deciders for their
// own decision: a second scheduler instance fed a plain VectorWorkerView
// (not stable(), so it decides over a sorted copy with the views' default
// linear wait queries), and -- for ELSA -- the literal Algorithm 2 of
// elsa_oracle.h.  Over the engine scenario grid, the wide cells and the
// knee cells this checks the wait index, the idle index and ELSA's
// threshold table decision by decision.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "elsa_oracle.h"
#include "engine_scenarios.h"
#include "sched/scheduler.h"
#include "sim/server.h"

namespace pe::testing {
namespace {

constexpr SimTime kNoWait = sched::WorkerView::kNoWait;
constexpr SimTime kUnbounded = std::numeric_limits<SimTime>::max();

struct Tally {
  int arrivals = 0;
  int orphans = 0;
  int oracle_checks = 0;
  int mismatches = 0;
  std::string first_mismatch;
};

class ShadowScheduler final : public sched::Scheduler {
 public:
  ShadowScheduler(std::unique_ptr<sched::Scheduler> live,
                  std::unique_ptr<sched::Scheduler> shadow,
                  std::optional<ElsaOracle> oracle, Tally& tally)
      : live_(std::move(live)),
        shadow_(std::move(shadow)),
        oracle_(std::move(oracle)),
        tally_(tally) {}

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

  // The wait index against the snapshots: each position's exact wait
  // (at or under its wait, not under one tick less), then whole-range
  // queries, including the unbounded threshold failed workers must miss.
  void CheckWaitIndex(const workload::Query& query,
                      const sched::WorkerView& view) {
    const std::size_t n = snapshots_.size();
    SimTime shortest = kNoWait;
    int first_shortest = -1;
    int first_alive = -1;
    for (std::size_t i = 0; i < n; ++i) {
      const sched::WorkerState& want = snapshots_[i];
      const int at = want.failed ? -1 : static_cast<int>(i);
      const SimTime min = want.failed ? kNoWait : want.wait_ticks;
      if (view.FirstWaitAtMost(i, i + 1, want.wait_ticks) != at ||
          view.FirstWaitAtMost(i, i + 1, want.wait_ticks - 1) != -1 ||
          view.MinWait(i, i + 1) != min) {
        Mismatch(query, "wait index at " + std::to_string(i) + " is stale");
      }
      if (want.failed) continue;
      if (first_alive < 0) first_alive = static_cast<int>(i);
      if (want.wait_ticks < shortest) {
        shortest = want.wait_ticks;
        first_shortest = static_cast<int>(i);
      }
    }
    if (view.MinWait(0, n) != shortest ||
        view.FirstWaitAtMost(0, n, shortest) != first_shortest) {
      Mismatch(query, "range MinWait/FirstWaitAtMost disagree");
    }
    if (view.FirstWaitAtMost(0, n, kUnbounded) != first_alive) {
      Mismatch(query, "unbounded FirstWaitAtMost matched a failed worker");
    }
  }

  void Disagree(const workload::Query& query, bool orphan, int got,
                const std::string& who, int want) {
    std::string what = orphan ? "orphan" : "arrival";
    what += " decision ";
    what += std::to_string(got);
    what += " vs ";
    what += who;
    what += " ";
    what += std::to_string(want);
    Mismatch(query, what);
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
      }
      CheckWaitIndex(query, view);
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
    if (got != want) Disagree(query, orphan, got, "shadow", want);
    if (oracle_) {
      ++tally_.oracle_checks;
      const int literal = oracle_->Decide(query, snapshots_);
      if (got != literal) Disagree(query, orphan, got, "Algorithm 2", literal);
    }
    return got;
  }

  std::unique_ptr<sched::Scheduler> live_;
  std::unique_ptr<sched::Scheduler> shadow_;
  std::optional<ElsaOracle> oracle_;
  Tally& tally_;
  const sim::InferenceServer* server_ = nullptr;
  std::vector<sched::WorkerState> snapshots_;
};

class ShadowSource final : public SchedulerSource {
 public:
  explicit ShadowSource(std::optional<ElsaOracle> oracle = std::nullopt)
      : oracle_(std::move(oracle)) {}

  std::unique_ptr<sched::Scheduler> Make(
      const SchedulerFactory& make) override {
    auto scheduler =
        std::make_unique<ShadowScheduler>(make(), make(), oracle_, tally);
    pending_ = scheduler.get();
    return scheduler;
  }
  void Attach(sim::InferenceServer& server) override {
    pending_->Attach(server);
  }

  Tally tally;

 private:
  std::optional<ElsaOracle> oracle_;
  ShadowScheduler* pending_ = nullptr;
};

// The repertoires the oracles read Tnew from; the cells build identical
// ones for their servers.
const profile::ModelRepertoire& Repertoire(int models) {
  static const auto one = MakeScenarioRepertoire(1);
  static const auto three = MakeScenarioRepertoire(3);
  return models == 1 ? one : three;
}

std::optional<ElsaOracle> OracleFor(const GridCell& cell) {
  if (cell.sched != Sched::kElsa) return std::nullopt;
  return ElsaOracle{&Repertoire(cell.models), MsToTicks(cell.sla_ms),
                    GridElsaParams(cell)};
}

std::optional<ElsaOracle> OracleFor(const WideCell& cell) {
  if (cell.sched != Sched::kElsa) return std::nullopt;
  return ElsaOracle{&Repertoire(3), MsToTicks(cell.sla_ms),
                    WideElsaParams(cell)};
}

TEST(ShadowView, ScenarioGridAgreesDecisionByDecision) {
  int orphans = 0;
  for (const GridCell& cell : ScenarioGrid()) {
    ShadowSource source(OracleFor(cell));
    const auto records = RunGridCell(cell, source);
    EXPECT_EQ(source.tally.mismatches, 0)
        << cell.Label() << ", first: " << source.tally.first_mismatch;
    // Every arrival passes the scheduler (reconfiguration windows hold
    // some and re-offer them later, so consultations can only exceed the
    // query count).
    EXPECT_GE(source.tally.arrivals, static_cast<int>(records.size()))
        << cell.Label();
    if (cell.sched == Sched::kElsa) {
      EXPECT_EQ(source.tally.oracle_checks,
                source.tally.arrivals + source.tally.orphans)
          << cell.Label();
    }
    orphans += source.tally.orphans;
  }
  // The reconfiguring cells carry queued work across layouts.
  EXPECT_GT(orphans, 0);
}

TEST(ShadowView, OverloadedElsaAgreesDecisionByDecision) {
  // SLAs too tight to meet push most arrivals past Step A into Step B,
  // which the 40 ms grid seldom reaches.
  for (const double sla_ms : {2.0, 6.0}) {
    for (const bool reconfigure : {false, true}) {
      const GridCell cell{Sched::kElsa, 3, reconfigure, 5, sla_ms};
      ShadowSource source(OracleFor(cell));
      (void)RunGridCell(cell, source);
      EXPECT_EQ(source.tally.mismatches, 0)
          << cell.Label() << " sla " << sla_ms
          << " ms, first: " << source.tally.first_mismatch;
      EXPECT_GT(source.tally.oracle_checks, 0) << cell.Label();
    }
  }
}

TEST(ShadowView, WideCellsAgreeDecisionByDecision) {
  for (const WideCell& cell : WideGrid()) {
    ShadowSource source(OracleFor(cell));
    const auto records = RunWideCell(cell, source);
    EXPECT_EQ(source.tally.mismatches, 0)
        << cell.Label() << ", first: " << source.tally.first_mismatch;
    EXPECT_GE(source.tally.arrivals, static_cast<int>(records.size()))
        << cell.Label();
    // Failed workers' queues are re-placed as orphans.  FIFS binds only
    // to idle workers, so its local queues are empty when one fails.
    if (cell.faults && cell.sched != Sched::kFifs) {
      EXPECT_GT(source.tally.orphans, 0) << cell.Label();
    }
    if (cell.sched == Sched::kElsa) {
      EXPECT_EQ(source.tally.oracle_checks,
                source.tally.arrivals + source.tally.orphans)
          << cell.Label();
    }
  }
}

TEST(ShadowView, KneeCellsAgreeDecisionByDecision) {
  for (const KneeCell& cell : KneeCells()) {
    const core::MixTestbed tb = KneeTestbed(cell);
    ShadowSource source(
        ElsaOracle{&tb.repertoire(), tb.sla_target(), KneeElsaParams(cell)});
    const auto records =
        RunKneeCell(cell, tb, tb.PlanMixed().plan.instance_gpcs, source);
    EXPECT_EQ(source.tally.mismatches, 0)
        << cell.name << ", first: " << source.tally.first_mismatch;
    EXPECT_EQ(source.tally.arrivals, static_cast<int>(records.size()))
        << cell.name;
    EXPECT_EQ(source.tally.oracle_checks, source.tally.arrivals) << cell.name;
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
