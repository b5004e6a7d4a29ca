// Live-reconfiguration semantics of the continuous event engine: queries
// queued across a BeginReconfigure boundary are neither lost nor
// duplicated, downtime lands in their queue delay, held/orphaned work is
// flagged in the stall metric, and a run that never reconfigures is
// bit-identical to a plain InferenceServer::Run.
#include "sim/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

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

void ExpectSameRecords(const std::vector<QueryRecord>& a,
                       const std::vector<QueryRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "record " << i;
    EXPECT_EQ(a[i].batch, b[i].batch) << "record " << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << "record " << i;
    EXPECT_EQ(a[i].dispatched, b[i].dispatched) << "record " << i;
    EXPECT_EQ(a[i].started, b[i].started) << "record " << i;
    EXPECT_EQ(a[i].finished, b[i].finished) << "record " << i;
    EXPECT_EQ(a[i].worker, b[i].worker) << "record " << i;
    EXPECT_EQ(a[i].worker_gpcs, b[i].worker_gpcs) << "record " << i;
    EXPECT_EQ(a[i].reconfig_stalls, b[i].reconfig_stalls) << "record " << i;
  }
}

// Every query injected appears exactly once, finished, with sane
// timestamps and non-overlapping service intervals per worker.
void ExpectConservation(const std::vector<QueryRecord>& records,
                        std::size_t expected) {
  ASSERT_EQ(records.size(), expected);
  std::set<std::uint64_t> ids;
  std::map<int, std::vector<std::pair<SimTime, SimTime>>> by_worker;
  for (const auto& r : records) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
    EXPECT_GE(r.started, r.arrival) << "query " << r.id;
    EXPECT_GT(r.finished, r.started) << "query " << r.id;
    by_worker[r.worker].emplace_back(r.started, r.finished);
  }
  EXPECT_EQ(ids.size(), expected);
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), expected - 1);
  for (auto& [worker, spans] : by_worker) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second)
          << "worker " << worker << " overlaps at interval " << i;
    }
  }
}

TEST(Reconfigure, DowntimeChargedToHeldArrival) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  // q0 at 0 (runs 0-2 ms), q1 at 1 ms (held by the window).
  server.InjectTrace(MakeTrace(2, MsToTicks(1.0)));
  server.AdvanceTo(MsToTicks(0.5));
  // Drain ends at 2 ms, layout up at 7 ms.
  server.BeginReconfigure({7}, MsToTicks(5.0));
  EXPECT_TRUE(server.reconfiguring());
  const auto result = server.Finish();
  ExpectConservation(result.records, 2);
  EXPECT_EQ(result.records[0].finished, MsToTicks(2.0));
  EXPECT_EQ(result.records[0].reconfig_stalls, 0);
  // q1 waited out the drain + the 5 ms downtime.
  EXPECT_EQ(result.records[1].started, MsToTicks(7.0));
  EXPECT_EQ(result.records[1].QueueDelay(), MsToTicks(6.0));
  EXPECT_GE(result.records[1].QueueDelay(), MsToTicks(5.0));
  EXPECT_EQ(result.records[1].reconfig_stalls, 1);
}

TEST(Reconfigure, LocalQueueOrphansCarriedToNewLayout) {
  const auto rep = testing::ToyModel();
  // Loose SLA: ELSA queues everything on the single GPU(7) locally.
  sched::ElsaScheduler elsa(rep, MsToTicks(50.0));
  InferenceServer server(Config({7}), rep, elsa);
  server.InjectTrace(MakeTrace(3, 0));
  server.AdvanceTo(MsToTicks(1.0));
  // q0 in flight, q1/q2 queued locally; zero-downtime swap to {7, 7}.
  server.BeginReconfigure({7, 7}, 0);
  const auto result = server.Finish();
  ExpectConservation(result.records, 3);
  EXPECT_EQ(server.workers().size(), 2u);
  EXPECT_EQ(result.records[0].finished, MsToTicks(2.0));
  EXPECT_EQ(result.records[0].reconfig_stalls, 0);
  for (std::size_t i = 1; i < 3; ++i) {
    // Orphans were re-placed on the new layout, no earlier than the swap.
    EXPECT_EQ(result.records[i].reconfig_stalls, 1) << "query " << i;
    EXPECT_GE(result.records[i].started, MsToTicks(2.0)) << "query " << i;
  }
}

TEST(Reconfigure, CentralQueueCarriedInFifoOrder) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  // Five simultaneous arrivals: q0 runs 0-2, q1 runs 2-4, q2..q4 central.
  server.InjectTrace(MakeTrace(5, 0));
  server.AdvanceTo(MsToTicks(3.0));
  // Drain ends at 4 ms, new two-worker layout up at 5 ms.
  server.BeginReconfigure({7, 7}, MsToTicks(1.0));
  const auto result = server.Finish();
  ExpectConservation(result.records, 5);
  EXPECT_EQ(result.records[1].finished, MsToTicks(4.0));
  // q2/q3 start together on the fresh workers, q4 takes the next slot.
  EXPECT_EQ(result.records[2].started, MsToTicks(5.0));
  EXPECT_EQ(result.records[3].started, MsToTicks(5.0));
  EXPECT_EQ(result.records[4].started, MsToTicks(7.0));
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(result.records[i].reconfig_stalls, 1) << "query " << i;
  }
}

TEST(Reconfigure, SupersedingWindowRetargetsAndNeverShortens) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  workload::Query late;
  late.id = 0;
  late.arrival = MsToTicks(30.0);
  late.batch = 8;
  server.InjectQuery(late);
  server.AdvanceTo(MsToTicks(1.0));
  server.BeginReconfigure({1}, MsToTicks(10.0));   // ready at 11 ms
  server.BeginReconfigure({7, 7}, MsToTicks(20.0));  // ready at 21 ms
  const auto result = server.Finish();
  // The second target won; the first window's completion was superseded.
  ASSERT_EQ(server.workers().size(), 2u);
  EXPECT_EQ(server.workers()[0].gpcs(), 7);
  EXPECT_EQ(server.workers()[1].gpcs(), 7);
  // The late query arrived after the window closed: untouched.
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].started, MsToTicks(30.0));
  EXPECT_EQ(result.records[0].reconfig_stalls, 0);
}

TEST(Reconfigure, NoReconfigureIsBitIdenticalToPlainRun) {
  const auto rep = testing::ToyModel();
  auto config = Config({1, 7, 7});
  config.latency_noise_sigma = 0.2;  // exercise the RNG stream
  const auto trace = MakeTrace(200, MsToTicks(0.7));

  sched::FifsScheduler fifs_a;
  InferenceServer batch_server(config, rep, fifs_a);
  const auto batch = batch_server.Run(trace);

  sched::FifsScheduler fifs_b;
  InferenceServer inc_server(config, rep, fifs_b);
  inc_server.InjectTrace(trace);
  // Chunked advancing must not perturb event order or the RNG stream.
  for (int ms = 10; ms <= 150; ms += 10) {
    inc_server.AdvanceTo(MsToTicks(ms));
  }
  const auto incremental = inc_server.Finish();

  ExpectSameRecords(batch.records, incremental.records);
  for (const auto& r : incremental.records) {
    EXPECT_EQ(r.reconfig_stalls, 0) << "query " << r.id;
  }
}

TEST(Reconfigure, StallsSurfaceInComputeStats) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  server.InjectTrace(MakeTrace(5, 0));
  server.AdvanceTo(MsToTicks(3.0));
  server.BeginReconfigure({7}, MsToTicks(4.0));
  const auto result = server.Finish();
  const auto stats = ComputeStats(result.records, MsToTicks(15.0),
                                  /*warmup_fraction=*/0.0);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.reconfig_stalled, 3u);  // q2..q4 crossed the window
}

TEST(Reconfigure, RejectsInvalidArguments) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  EXPECT_THROW(server.BeginReconfigure({}, 0), std::invalid_argument);
  EXPECT_THROW(server.BeginReconfigure({0}, 0), std::invalid_argument);
  EXPECT_THROW(server.BeginReconfigure({7}, -1), std::invalid_argument);
}

TEST(Reconfigure, RejectsArrivalInThePast) {
  const auto rep = testing::ToyModel();
  sched::FifsScheduler fifs;
  InferenceServer server(Config({7}), rep, fifs);
  server.AdvanceTo(MsToTicks(5.0));
  workload::Query q;
  q.id = 0;
  q.arrival = MsToTicks(1.0);
  EXPECT_THROW(server.InjectQuery(q), std::invalid_argument);
}

}  // namespace
}  // namespace pe::sim
