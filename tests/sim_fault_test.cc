// Engine-level fault injection semantics: FailWorker kills the in-flight
// attempt and re-places (or returns) queued work, RecoverWorker replays
// parked queries, FailCentralQueue empties the server for the
// whole-server-crash path, SetSlowdownFactor stretches actual execution
// without touching estimates, Finish leaves no record un-terminal even
// under a total outage, and no query is ever bound to a failed worker.
#include "sim/server.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "one_model.h"
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

TEST(FaultInjection, FailWorkerKillsTheInFlightAttempt) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  server.InjectTrace(MakeTrace(1, 0));
  server.AdvanceTo(MsToTicks(1.0));  // mid-flight on the 2 ms worker
  const auto lost = server.FailWorker(0);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].id, 0u);
  EXPECT_EQ(server.num_failed_workers(), 1);
  const auto result = server.Finish();
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_TRUE(result.records[0].failed);
  EXPECT_FALSE(result.records[0].shed);
  // `finished` records the failure instant, not a completion.
  EXPECT_EQ(result.records[0].finished, MsToTicks(1.0));
}

TEST(FaultInjection, FailWorkerIsIdempotentAndRecoverRestoresService) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  server.AdvanceTo(MsToTicks(1.0));
  EXPECT_FALSE(server.FailWorker(0).size());  // idle worker: nothing lost
  EXPECT_TRUE(server.FailWorker(0).empty());  // already failed: no-op
  EXPECT_EQ(server.num_failed_workers(), 1);

  // Arrivals during the outage park centrally (sole worker is down)...
  workload::Query q;
  q.id = 0;
  q.arrival = MsToTicks(2.0);
  q.batch = 8;
  server.InjectQuery(q);
  server.AdvanceTo(MsToTicks(5.0));
  // ...and replay on recovery.
  server.RecoverWorker(0);
  EXPECT_EQ(server.num_failed_workers(), 0);
  const auto result = server.Finish();
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_FALSE(result.records[0].failed);
  EXPECT_EQ(result.records[0].finished, MsToTicks(7.0));
}

TEST(FaultInjection, OrphansRequeueOntoSurvivingWorkers) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  // Two 2 ms workers, four simultaneous arrivals: two start, two queue.
  InferenceServer server(Config({7, 7}), rep, fifs);
  server.InjectTrace(MakeTrace(4, 0));
  server.AdvanceTo(MsToTicks(1.0));
  server.FailWorker(0, /*requeue_orphans=*/true);
  const auto result = server.Finish();
  ASSERT_EQ(result.records.size(), 4u);
  std::size_t failed = 0;
  for (const auto& r : result.records) {
    if (r.failed) {
      ++failed;
    } else {
      // Every survivor completed on the one healthy worker.
      EXPECT_EQ(r.worker, 1);
      EXPECT_GT(r.finished, r.started);
    }
  }
  EXPECT_EQ(failed, 1u);  // exactly the in-flight attempt on worker 0
}

TEST(FaultInjection, WholeServerCrashReturnsEveryInSystemQuery) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7, 7}), rep, fifs);
  server.InjectTrace(MakeTrace(6, 0));
  server.AdvanceTo(MsToTicks(1.0));
  // The fleet driver's crash sequence: fail every worker without local
  // requeue, then drain the central queue.
  std::vector<workload::Query> lost;
  for (int w = 0; w < server.num_workers(); ++w) {
    for (auto& q : server.FailWorker(w, /*requeue_orphans=*/false)) {
      lost.push_back(q);
    }
  }
  for (auto& q : server.FailCentralQueue()) lost.push_back(q);
  EXPECT_EQ(lost.size(), 6u);  // 2 in-flight + 4 queued, all returned
  const auto result = server.Finish();
  for (const auto& r : result.records) {
    EXPECT_TRUE(r.failed) << "query " << r.id;
    EXPECT_EQ(r.finished, MsToTicks(1.0));
  }
}

TEST(FaultInjection, TotalOutageParksArrivalsAndFinishFailsThem) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  server.FailWorker(0);
  server.InjectTrace(MakeTrace(3, MsToTicks(0.5)));
  // No recovery ever happens: Finish must still terminate every record.
  const auto result = server.Finish();
  ASSERT_EQ(result.records.size(), 3u);
  for (const auto& r : result.records) {
    EXPECT_TRUE(r.failed) << "query " << r.id;
  }
}

TEST(FaultInjection, SlowdownStretchesActualExecutionOnly) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  server.SetSlowdownFactor(3.0);
  server.InjectTrace(MakeTrace(1, 0));
  auto result = server.Finish();
  // 2 ms nominal x 3: the degraded replica underdelivers.
  EXPECT_EQ(result.records[0].finished - result.records[0].started,
            MsToTicks(6.0));

  // Back to nominal: 1.0 restores the clean-run service time.
  InferenceServer healed(Config({7}), rep, fifs);
  healed.SetSlowdownFactor(2.0);
  healed.SetSlowdownFactor(1.0);
  healed.InjectTrace(MakeTrace(1, 0));
  result = healed.Finish();
  EXPECT_EQ(result.records[0].finished - result.records[0].started,
            MsToTicks(2.0));

  EXPECT_THROW(server.SetSlowdownFactor(0.0), std::invalid_argument);
  EXPECT_THROW(server.SetSlowdownFactor(-1.0), std::invalid_argument);
}

// An execution time past 2^63 ns used to wrap negative and clamp to one
// tick, so a 1e300x brownout served every query in 1 ns.  It throws,
// naming the slowdown factor and the noise sigma; a large factor that
// still fits rounds as SecToTicks does.
TEST(FaultInjection, SlowdownPastTheTickClockThrows) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  ServerConfig noisy = Config({7});
  noisy.latency_noise_sigma = 0.25;
  for (const ServerConfig& config : {Config({7}), noisy}) {
    InferenceServer server(config, rep, fifs);
    server.SetSlowdownFactor(1e300);
    server.InjectTrace(MakeTrace(1, 0));
    try {
      server.Finish();
      ADD_FAILURE() << "a 1e300x slowdown ran";
    } catch (const std::overflow_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("overflows the tick clock"), std::string::npos)
          << what;
      EXPECT_NE(what.find("slowdown factor 1e+300"), std::string::npos)
          << what;
      EXPECT_NE(what.find("noise sigma " +
                          std::string(config.latency_noise_sigma > 0.0
                                          ? "0.25"
                                          : "0")),
                std::string::npos)
          << what;
    }
  }

  InferenceServer slow(Config({7}), rep, fifs);
  slow.SetSlowdownFactor(4e9);
  slow.InjectTrace(MakeTrace(1, 0));
  const auto result = slow.Finish();
  // 2 ms x 4e9 = 8e6 s, below 2^63 ns (about 9.2e9 s).
  EXPECT_EQ(result.records[0].finished - result.records[0].started,
            SecToTicks(2e-3 * 4e9));
}

// Binds every arrival to worker 0, failed or not.
class PinnedScheduler final : public sched::Scheduler {
 public:
  using Scheduler::OnQueryArrival;
  int OnQueryArrival(const workload::Query& query,
                     const sched::WorkerView& workers) override {
    (void)query;
    (void)workers;
    return 0;
  }
  bool UsesCentralQueue() const override { return false; }
  std::string name() const override { return "pinned"; }
};

TEST(FaultInjection, BindingAFailedWorkerThrows) {
  const auto rep = testing::ToyModel();
  PinnedScheduler pinned;
  InferenceServer server(Config({1, 7}), rep, pinned);
  server.FailWorker(0);
  server.InjectTrace(MakeTrace(1, 0));
  EXPECT_THROW(server.Finish(), std::logic_error);
}

TEST(FaultInjection, UnboundedSlackNeverReachesAFailedWorker) {
  // alpha = 0 gives every wait positive slack: ELSA's Step A threshold is
  // the largest SimTime, at which the live view must still skip failed
  // workers.
  const auto rep = testing::ToyModel();
  sched::ElsaParams params;
  params.alpha = 0.0;
  sched::ElsaScheduler elsa(rep, MsToTicks(15.0), params);
  InferenceServer server(Config({1, 1, 7}), rep, elsa);
  server.FailWorker(0);
  server.InjectTrace(MakeTrace(4, MsToTicks(1.0)));
  const auto result = server.Finish();
  for (const auto& r : result.records) {
    EXPECT_FALSE(r.failed) << "query " << r.id;
    // The smallest surviving partition, however long its queue.
    EXPECT_EQ(r.worker, 1) << "query " << r.id;
  }
}

}  // namespace
}  // namespace pe::sim
