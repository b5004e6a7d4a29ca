// Multi-model serving in the simulator core: model-swap penalties, the
// resident-model snapshot, per-model stats, and ELSA's locality tie-break.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "profile/model_repertoire.h"
#include "sched/elsa.h"
#include "sched/fifs.h"
#include "sim/server.h"

namespace pe::sim {
namespace {

// Two synthetic models with flat 10 ms latency on a 1-GPC partition grid:
// swap arithmetic becomes exact.
profile::ModelRepertoire MakeRepertoire() {
  profile::ModelRepertoire rep;
  for (const char* name : {"alpha", "beta"}) {
    profile::ProfileTable table(name, {1, 2}, {1, 2, 4});
    for (int g : {1, 2}) {
      for (int b : {1, 2, 4}) {
        profile::ProfileEntry e;
        e.latency_sec = 0.010;
        e.utilization = 0.9;
        table.Set(g, b, e);
      }
    }
    rep.Register(name, std::move(table), [](int, int) { return 0.010; });
  }
  return rep;
}

workload::Query MakeQuery(std::uint64_t id, SimTime arrival, int model) {
  workload::Query q;
  q.id = id;
  q.arrival = arrival;
  q.batch = 1;
  q.model_id = model;
  return q;
}

TEST(ModelSwap, FinishPastTheTickClockThrowsNamingTheSwapCost) {
  // A swap charge that fits SimTime on its own, started 10 ms in: the
  // finish instant passes 2^63 ns.  Its occupancy fits in the first case
  // and overflows too in the second.
  const auto rep = MakeRepertoire();
  const SimTime kMax = std::numeric_limits<SimTime>::max();
  for (const SimTime swap_cost : {kMax - MsToTicks(10.0), kMax}) {
    ServerConfig sc;
    sc.partition_gpcs = {1};
    sc.model_swap_cost = swap_cost;
    sched::FifsScheduler fifs;
    InferenceServer server(sc, rep, fifs);
    server.InjectQuery(MakeQuery(0, 0, 0));
    server.InjectQuery(MakeQuery(1, 0, 1));  // swaps in at 10 ms
    try {
      server.Finish();
      ADD_FAILURE() << "no overflow at swap cost " << swap_cost;
    } catch (const std::overflow_error& e) {
      EXPECT_NE(std::string(e.what()).find("model_swap_cost"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelSwap, ChargedOnlyWhenResidentModelChanges) {
  const auto rep = MakeRepertoire();
  ServerConfig sc;
  sc.partition_gpcs = {1};  // one worker: serialized starts
  sc.seed = 3;
  sc.model_swap_cost = MsToTicks(5.0);
  sched::FifsScheduler fifs;
  InferenceServer server(sc, rep, fifs);

  // Same model back to back, then alternate: swaps on q2 and q3 only.
  server.InjectQuery(MakeQuery(0, 0, 0));
  server.InjectQuery(MakeQuery(1, MsToTicks(1.0), 0));
  server.InjectQuery(MakeQuery(2, MsToTicks(2.0), 1));
  server.InjectQuery(MakeQuery(3, MsToTicks(3.0), 0));
  const auto result = server.Finish();

  ASSERT_EQ(result.records.size(), 4u);
  // First-ever start loads a model but displaces nothing.
  EXPECT_FALSE(result.records[0].model_swap);
  EXPECT_EQ(result.records[0].finished - result.records[0].started,
            MsToTicks(10.0));
  EXPECT_FALSE(result.records[1].model_swap);
  EXPECT_EQ(result.records[1].finished - result.records[1].started,
            MsToTicks(10.0));
  // alpha -> beta and beta -> alpha both pay the 5 ms re-load.
  EXPECT_TRUE(result.records[2].model_swap);
  EXPECT_EQ(result.records[2].finished - result.records[2].started,
            MsToTicks(15.0));
  EXPECT_TRUE(result.records[3].model_swap);
  EXPECT_EQ(result.records[3].finished - result.records[3].started,
            MsToTicks(15.0));

  const auto stats = ComputeStats(result.records, MsToTicks(100.0),
                                  /*warmup_fraction=*/0.0);
  EXPECT_EQ(stats.model_swaps, 2u);
  ASSERT_EQ(stats.models.size(), 2u);
  EXPECT_EQ(stats.models[0].model, 0);
  EXPECT_EQ(stats.models[0].completed, 3u);
  EXPECT_EQ(stats.models[0].swaps, 1u);
  EXPECT_EQ(stats.models[1].model, 1);
  EXPECT_EQ(stats.models[1].completed, 1u);
  EXPECT_EQ(stats.models[1].swaps, 1u);
}

TEST(ModelSwap, SingleModelNeverCharged) {
  const auto rep = MakeRepertoire();
  ServerConfig sc;
  sc.partition_gpcs = {1};
  sc.model_swap_cost = MsToTicks(50.0);  // would be very visible
  sched::FifsScheduler fifs;
  InferenceServer server(sc, rep, fifs);
  for (std::uint64_t i = 0; i < 8; ++i) {
    server.InjectQuery(MakeQuery(i, MsToTicks(static_cast<double>(i)), 0));
  }
  const auto result = server.Finish();
  for (const auto& r : result.records) {
    EXPECT_FALSE(r.model_swap);
    EXPECT_EQ(r.finished - r.started, MsToTicks(10.0));
  }
}

TEST(ModelSwap, UnknownModelIdRejectedAtInjection) {
  const auto rep = MakeRepertoire();
  ServerConfig sc;
  sc.partition_gpcs = {1};
  sched::FifsScheduler fifs;
  InferenceServer server(sc, rep, fifs);
  EXPECT_THROW(server.InjectQuery(MakeQuery(0, 0, 7)), std::invalid_argument);
  EXPECT_THROW(server.InjectQuery(MakeQuery(0, 0, -1)), std::invalid_argument);
}

TEST(ModelSwap, ResidentModelVisibleInWorkerSnapshots) {
  const auto rep = MakeRepertoire();
  ServerConfig sc;
  sc.partition_gpcs = {1, 2};
  sched::FifsScheduler fifs;
  InferenceServer server(sc, rep, fifs);
  for (const auto& w : server.workers()) {
    EXPECT_EQ(w.Snapshot(0).resident_model, -1);
  }
  // FIFS sends the first arrival to the largest idle partition (index 1).
  server.InjectQuery(MakeQuery(0, 0, 1));
  server.AdvanceTo(MsToTicks(1.0));
  EXPECT_EQ(server.workers()[1].resident_model(), 1);
  EXPECT_EQ(server.workers()[1].Snapshot(server.now()).resident_model, 1);
  EXPECT_EQ(server.workers()[0].resident_model(), -1);
}

TEST(ElsaLocality, PrefersResidentModelWithinTie) {
  const auto rep = MakeRepertoire();
  const SimTime sla = MsToTicks(100.0);

  auto make_worker = [](int index, int resident) {
    sched::WorkerState w;
    w.index = index;
    w.gpcs = 1;
    w.idle = true;
    w.wait_ticks = 0;
    w.queue_length = 0;
    w.resident_model = resident;
    return w;
  };
  const std::vector<sched::WorkerState> workers = {make_worker(0, 0),
                                                   make_worker(1, 1)};
  workload::Query q = MakeQuery(0, 0, /*model=*/1);

  // Model-oblivious Algorithm 2: smallest (gpcs, index) positive-slack
  // worker wins regardless of residency.
  sched::ElsaScheduler oblivious(rep, sla);
  EXPECT_EQ(oblivious.OnQueryArrival(q, workers), 0);

  // Locality tie-break: worker 1 already holds beta and its completion
  // ties worker 0's exactly, so it wins and the swap is avoided.
  sched::ElsaParams params;
  params.locality_tie_sec = 0.001;
  sched::ElsaScheduler local(rep, sla, params);
  EXPECT_EQ(local.OnQueryArrival(q, workers), 1);

  // A same-model worker far outside the tie window must not win.
  std::vector<sched::WorkerState> loaded = workers;
  loaded[1].idle = false;
  loaded[1].wait_ticks = MsToTicks(50.0);  // 50 ms behind: no tie
  EXPECT_EQ(local.OnQueryArrival(q, loaded), 0);

  // Same-model arrivals see no difference from the oblivious policy.
  q.model_id = 0;
  EXPECT_EQ(local.OnQueryArrival(q, workers),
            oblivious.OnQueryArrival(q, workers));
}

TEST(ElsaLocality, ReducesSwapsEndToEnd) {
  const auto rep = MakeRepertoire();
  const SimTime sla = MsToTicks(100.0);
  ServerConfig sc;
  sc.partition_gpcs = {1, 1};
  sc.model_swap_cost = MsToTicks(5.0);
  sc.seed = 11;

  auto run = [&](sched::ElsaParams params) {
    sched::ElsaScheduler elsa(rep, sla, params);
    InferenceServer server(sc, rep, elsa);
    // Strictly alternating models, arrivals slow enough that some worker
    // is always free: the locality policy can pin each model to "its"
    // worker while the oblivious one keeps swapping on worker 0.
    for (std::uint64_t i = 0; i < 40; ++i) {
      server.InjectQuery(MakeQuery(i, MsToTicks(6.0 * static_cast<double>(i)),
                                   static_cast<int>(i % 2)));
    }
    const auto stats = ComputeStats(server.Finish().records, sla,
                                    /*warmup_fraction=*/0.0);
    return stats.model_swaps;
  };

  const std::size_t oblivious_swaps = run(sched::ElsaParams{});
  sched::ElsaParams params;
  params.locality_tie_sec = 0.001;
  const std::size_t local_swaps = run(params);
  EXPECT_GT(oblivious_swaps, 10u);
  EXPECT_LT(local_swaps, 3u);
}

}  // namespace
}  // namespace pe::sim
