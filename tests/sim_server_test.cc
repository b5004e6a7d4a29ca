#include "sim/server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "one_model.h"
#include "sched/baselines.h"
#include "sched/elsa.h"
#include "sched/fifs.h"

namespace pe::sim {
namespace {

workload::QueryTrace MakeTrace(std::size_t n, SimTime gap, int batch = 8) {
  std::vector<workload::Query> qs;
  for (std::size_t i = 0; i < n; ++i) {
    workload::Query q;
    q.id = i;
    q.arrival = static_cast<SimTime>(i) * gap;
    q.batch = batch;
    qs.push_back(q);
  }
  return workload::QueryTrace(std::move(qs));
}

ServerConfig Config(std::vector<int> gpcs) {
  ServerConfig c;
  c.partition_gpcs = std::move(gpcs);
  c.sla_target = MsToTicks(15.0);
  c.seed = 1;
  return c;
}

// Binds query i to worker bind[i]; on query `probe_id`'s arrival it first
// hands the server's live view to `probe`.
class ScriptedScheduler final : public sched::Scheduler {
 public:
  using Scheduler::OnQueryArrival;

  int OnQueryArrival(const workload::Query& query,
                     const sched::WorkerView& view) override {
    if (query.id == probe_id) probe(view);
    return bind.at(query.id);
  }
  bool UsesCentralQueue() const override { return false; }
  std::string name() const override { return "scripted"; }

  std::vector<int> bind;
  std::uint64_t probe_id = 0;
  std::function<void(const sched::WorkerView&)> probe;
};

TEST(InferenceServer, WaitIndexSkipsOverrunHitsAndFailedWorkers) {
  // Ten 1-GPC workers (10 ms estimates) at slowdown 3.  Workers 0..5 each
  // start one query and queue a second at t = 0; at t1 = 10 ms + 1 tick
  // their estimates have run out while the queries still run, so each has
  // backlog_end = 20 ms <= X + t1 for X = 10 ms - 1 tick, but a queued
  // estimate of 10 ms > X: every one is a backlog hit whose queued test
  // fails.  Worker 6 is idle and worker 9 failed.
  const auto rep = testing::ToyModel();
  const SimTime estimate = MsToTicks(10.0);
  const SimTime t1 = estimate + 1;
  ScriptedScheduler scheduler;
  std::vector<workload::Query> qs;
  for (int k = 0; k < 12; ++k) {
    workload::Query q;
    q.id = qs.size();
    q.batch = 32;
    qs.push_back(q);
    scheduler.bind.push_back(k / 2);
  }
  workload::Query probe;
  probe.id = qs.size();
  probe.arrival = t1;
  probe.batch = 32;
  qs.push_back(probe);
  scheduler.bind.push_back(6);
  scheduler.probe_id = probe.id;
  constexpr SimTime kUnbounded = std::numeric_limits<SimTime>::max();
  bool probed = false;
  scheduler.probe = [&](const sched::WorkerView& view) {
    probed = true;
    for (std::size_t k = 0; k < 6; ++k) {
      ASSERT_EQ(view.Get(k).wait_ticks, estimate) << "worker " << k;
    }
    // Over the four-wide blocks and the tail alike.
    EXPECT_EQ(view.FirstWaitAtMost(0, 10, estimate - 1), 6);
    EXPECT_EQ(view.FirstWaitAtMost(0, 6, estimate - 1), -1);
    EXPECT_EQ(view.FirstWaitAtMost(3, 10, estimate - 1), 6);
    EXPECT_EQ(view.FirstWaitAtMost(0, 10, estimate), 0);
    EXPECT_EQ(view.FirstWaitAtMost(5, 10, estimate), 5);
    EXPECT_EQ(view.MinWait(0, 6), estimate);
    // The failed worker never matches, not even unbounded.
    EXPECT_EQ(view.FirstWaitAtMost(9, 10, kUnbounded), -1);
    EXPECT_EQ(view.FirstWaitAtMost(7, 10, kUnbounded), 7);
    EXPECT_EQ(view.FirstWaitAtMost(9, 10, 0), -1);
    EXPECT_EQ(view.MinWait(9, 10), sched::WorkerView::kNoWait);
  };
  ServerConfig config = Config(std::vector<int>(10, 1));
  InferenceServer server(config, rep, scheduler);
  server.SetSlowdownFactor(3.0);
  server.InjectTrace(workload::QueryTrace(std::move(qs)));
  server.AdvanceTo(t1);
  (void)server.FailWorker(9);
  const SimResult result = server.Finish();
  EXPECT_TRUE(probed);
  EXPECT_EQ(result.records[probe.id].worker, 6);
}

TEST(InferenceServer, SingleWorkerSequentialExecution) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  // Three queries arriving simultaneously on one 2 ms worker.
  const auto result = server.Run(MakeTrace(3, 0));
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[0].finished, MsToTicks(2.0));
  EXPECT_EQ(result.records[1].finished, MsToTicks(4.0));
  EXPECT_EQ(result.records[2].finished, MsToTicks(6.0));
}

TEST(InferenceServer, FifsUsesIdleWorkers) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7, 7}), rep, fifs);
  const auto result = server.Run(MakeTrace(2, 0));
  // Both run in parallel.
  EXPECT_EQ(result.records[0].finished, MsToTicks(2.0));
  EXPECT_EQ(result.records[1].finished, MsToTicks(2.0));
  EXPECT_NE(result.records[0].worker, result.records[1].worker);
}

TEST(InferenceServer, CentralQueueDrainsInFifoOrder) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  const auto result = server.Run(MakeTrace(5, MsToTicks(0.1)));
  for (std::size_t i = 1; i < result.records.size(); ++i) {
    EXPECT_GT(result.records[i].started, result.records[i - 1].started);
  }
}

TEST(InferenceServer, ElsaAvoidsSlowWorkerUnderTightSla) {
  const auto rep = testing::ToyModel();
  // SLA 5 ms: the 10 ms GPU(1) can never satisfy it; every query must go to
  // the GPU(7) even when GPU(1) idles.
  sched::ElsaScheduler elsa(rep, MsToTicks(5.0));
  auto config = Config({1, 7});
  InferenceServer server(config, rep, elsa);
  const auto result = server.Run(MakeTrace(10, MsToTicks(2.5)));
  for (const auto& r : result.records) {
    EXPECT_EQ(r.worker_gpcs, 7) << "query " << r.id;
  }
}

TEST(InferenceServer, ElsaUsesSmallWorkerWhenSlackAllows) {
  const auto rep = testing::ToyModel();
  // SLA 50 ms: GPU(1)'s 10 ms fits easily -> Step A prefers it.
  sched::ElsaScheduler elsa(rep, MsToTicks(50.0));
  InferenceServer server(Config({1, 7}), rep, elsa);
  const auto result = server.Run(MakeTrace(1, 0));
  EXPECT_EQ(result.records[0].worker_gpcs, 1);
}

TEST(InferenceServer, DeterministicAcrossRuns) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  auto run = [&] {
    InferenceServer server(Config({1, 7, 7}), rep, fifs);
    return server.Run(MakeTrace(100, MsToTicks(0.7)));
  };
  const auto a = run();
  const auto b = run();
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].finished, b.records[i].finished);
    EXPECT_EQ(a.records[i].worker, b.records[i].worker);
  }
}

TEST(InferenceServer, NoiseChangesLatenciesButStaysDeterministic) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  auto config = Config({7});
  config.latency_noise_sigma = 0.2;
  auto run = [&] {
    InferenceServer server(config, rep, fifs);
    return server.Run(MakeTrace(50, MsToTicks(5.0)));
  };
  const auto a = run();
  const auto b = run();
  bool any_differs_from_nominal = false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].finished, b.records[i].finished);  // same seed
    if (a.records[i].finished - a.records[i].started != MsToTicks(2.0)) {
      any_differs_from_nominal = true;
    }
  }
  EXPECT_TRUE(any_differs_from_nominal);
}

TEST(InferenceServer, FrontendDelaysDispatch) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  // Three workers so every query binds the moment it clears the frontend.
  auto config = Config({7, 7, 7});
  config.frontend.enabled = true;
  config.frontend.lanes = 1;
  config.frontend.cost_per_query = MsToTicks(1.0);
  InferenceServer server(config, rep, fifs);
  const auto result = server.Run(MakeTrace(3, 0));
  // Single frontend lane serializes entry: dispatch at 1, 2, 3 ms.
  EXPECT_EQ(result.records[0].dispatched, MsToTicks(1.0));
  EXPECT_EQ(result.records[1].dispatched, MsToTicks(2.0));
  EXPECT_EQ(result.records[2].dispatched, MsToTicks(3.0));
}

TEST(InferenceServer, FrontendWithManyLanesIsTransparent) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  auto config = Config({7});
  config.frontend.enabled = true;
  config.frontend.lanes = 16;
  config.frontend.cost_per_query = MsToTicks(0.5);
  InferenceServer server(config, rep, fifs);
  const auto result = server.Run(MakeTrace(3, MsToTicks(10.0)));
  for (const auto& r : result.records) {
    EXPECT_EQ(r.dispatched - r.arrival, MsToTicks(0.5));
  }
}

TEST(InferenceServer, RejectsEmptyPartitionList) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  EXPECT_THROW(InferenceServer(Config({}), rep, fifs), std::invalid_argument);
}

TEST(InferenceServer, RejectsNonDenseQueryIds) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  std::vector<workload::Query> qs(1);
  qs[0].id = 5;
  workload::QueryTrace trace(std::move(qs));
  EXPECT_THROW(server.Run(trace), std::invalid_argument);
}

// The record is the engine's per-query memory: every narrowed field is
// checked where its value enters, and a misfit throws naming the field
// instead of wrapping.
static_assert(sizeof(QueryRecord) == 48);

// Runs `body`, which must throw an E whose message names `field`.
template <typename E, typename Body>
void ExpectThrowNaming(Body body, const std::string& field) {
  try {
    body();
    ADD_FAILURE() << "nothing thrown; expected an error naming " << field;
  } catch (const E& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(InferenceServer, RejectsABatchTheRecordCannotHold) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  for (const int batch : {-1, 65'536}) {
    workload::Query q;
    q.batch = batch;
    ExpectThrowNaming<std::invalid_argument>([&] { server.InjectQuery(q); },
                                             "QueryRecord::batch");
  }
  for (const int batch : {0, 65'535}) {
    workload::Query q;
    q.id = batch == 0 ? 0 : 1;
    q.batch = batch;
    EXPECT_NO_THROW(server.InjectQuery(q)) << "batch " << batch;
  }
}

TEST(InferenceServer, RejectsLayoutsTheRecordCannotName) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  const std::vector<int> too_many(32'768, 1);
  ExpectThrowNaming<std::invalid_argument>(
      [&] { InferenceServer server(Config(too_many), rep, fifs); },
      "QueryRecord::worker ");
  ExpectThrowNaming<std::invalid_argument>(
      [&] { InferenceServer server(Config({1, 256}), rep, fifs); },
      "QueryRecord::worker_gpcs");
  // A reconfiguration target is checked when it is requested.
  InferenceServer server(Config({7}), rep, fifs);
  ExpectThrowNaming<std::invalid_argument>(
      [&] { server.BeginReconfigure(too_many, 0); }, "QueryRecord::worker ");
  ExpectThrowNaming<std::invalid_argument>(
      [&] { server.BeginReconfigure({256}, 0); }, "QueryRecord::worker_gpcs");
  // The limits themselves fit.
  EXPECT_NO_THROW(InferenceServer(Config(std::vector<int>(32'767, 1)), rep,
                                  fifs));
  EXPECT_NO_THROW(InferenceServer(Config({255}), rep, fifs));
}

TEST(InferenceServer, RejectsARetryCountTheRecordCannotHold) {
  // JSQ over two 1-GPC workers (10 ms a query).  Queries 0 and 1 start on
  // workers 0 and 1 and query 2 queues behind query 0.  Each round fails
  // the worker query 2 waits on -- killing its running query and
  // re-queueing query 2 on the other, busy worker (one retry) -- then
  // recovers it and hands it a fresh query, so query 2 never starts.
  const auto rep = testing::ToyModel();
  sched::JsqScheduler jsq;
  InferenceServer server(Config({1, 1}), rep, jsq);
  std::uint64_t next_id = 0;
  const auto inject = [&] {
    workload::Query q;
    q.id = next_id++;
    q.arrival = server.now();
    q.batch = 32;
    server.InjectQuery(q);
  };
  for (int k = 0; k < 3; ++k) inject();
  server.AdvanceTo(1);
  int holder = 0;  // the worker query 2 is queued on
  for (int retries = 0; retries < 65'535; ++retries) {
    const std::vector<workload::Query> killed = server.FailWorker(holder);
    ASSERT_EQ(killed.size(), 1u) << "round " << retries;
    server.RecoverWorker(holder);
    inject();
    server.AdvanceTo(server.now() + 1);
    holder = 1 - holder;
  }
  ExpectThrowNaming<std::overflow_error>([&] { server.FailWorker(holder); },
                                         "QueryRecord::retries");
}

TEST(InferenceServer, AllQueriesComplete) {
  const auto rep = testing::ToyModel();
  sched::ElsaScheduler elsa(rep, MsToTicks(15.0));
  InferenceServer server(Config({1, 1, 7}), rep, elsa);
  const auto result = server.Run(MakeTrace(500, MsToTicks(1.0)));
  for (const auto& r : result.records) {
    EXPECT_GT(r.finished, 0) << "query " << r.id << " never finished";
    EXPECT_GE(r.started, r.arrival);
    EXPECT_GT(r.finished, r.started);
  }
}

TEST(InferenceServer, ConservationNoDuplicateService) {
  // Each worker's service intervals must not overlap.
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({1, 7}), rep, fifs);
  const auto result = server.Run(MakeTrace(200, MsToTicks(0.9)));
  std::map<int, std::vector<std::pair<SimTime, SimTime>>> by_worker;
  for (const auto& r : result.records) {
    by_worker[r.worker].emplace_back(r.started, r.finished);
  }
  for (auto& [worker, spans] : by_worker) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second)
          << "worker " << worker << " overlaps at interval " << i;
    }
  }
}

}  // namespace
}  // namespace pe::sim
