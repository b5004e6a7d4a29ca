// The one profile lookup -- ProfileTable's dense cells, read through
// ModelRepertoire::EstimateSec by ELSA, GreedyFastest and the engine --
// against the map + lower_bound oracle in profile_oracle.h: the same
// doubles and ticks bit for bit, and std::out_of_range where the oracle
// throws it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "one_model.h"
#include "perf/model_zoo.h"
#include "perf/roofline.h"
#include "profile/model_repertoire.h"
#include "profile/profile_table.h"
#include "profile/profiler.h"
#include "profile_oracle.h"
#include "sched/scheduler.h"
#include "sim/server.h"

namespace pe::profile {
namespace {

using testing::ProfileOracle;

const std::vector<std::string> kZoo = {"shufflenet", "mobilenet", "resnet",
                                       "bert", "conformer"};

// The profiler's grid for `name`, measured straight from the roofline
// engine into the oracle.
ProfileOracle ZooOracle(const std::string& name) {
  const ProfilerConfig config = ProfilerConfig::Default();
  const perf::DnnModel model = perf::BuildModelByName(name);
  const perf::RooflineEngine engine;
  ProfileOracle oracle(config.batch_sizes);
  for (int g : config.partition_sizes) {
    for (int b : config.batch_sizes) {
      const perf::ModelTiming t = engine.Time(model, g, b);
      oracle.Set(g, b, ProfileEntry{t.latency_sec, t.utilization});
    }
  }
  return oracle;
}

TEST(ProfileLookup, ZooProfilesMatchTheOracle) {
  const ModelRepertoire zoo = BuildZooRepertoire(kZoo);
  for (int m = 0; m < zoo.size(); ++m) {
    SCOPED_TRACE(zoo.name(m));
    const ProfileTable& table = zoo.profile(m);
    testing::ExpectTableMatchesOracle(table, ZooOracle(zoo.name(m)), 8, -1,
                                      table.max_batch() + 8);
  }
}

TEST(ProfileLookup, RepertoireEstimatesMatchTheOracle) {
  const ModelRepertoire zoo = BuildZooRepertoire(kZoo);
  for (int m = 0; m < zoo.size(); ++m) {
    const ProfileOracle oracle = ZooOracle(zoo.name(m));
    for (int g = 0; g <= 8; ++g) {
      for (int b = -1; b <= zoo.max_batch() + 8; ++b) {
        std::string what = zoo.name(m);
        what += " g=";
        what += std::to_string(g);
        what += " b=";
        what += std::to_string(b);
        testing::ExpectSameLookup([&] { return zoo.EstimateSec(m, g, b); },
                                  [&] { return oracle.LatencySec(g, b); },
                                  what);
      }
    }
  }
  EXPECT_THROW(zoo.EstimateSec(5, 1, 8), std::out_of_range);
  EXPECT_THROW(zoo.EstimateSec(-1, 1, 8), std::out_of_range);
}

// Binds every query to worker 0 and records the Twait it saw there.
class WaitRecorder final : public sched::Scheduler {
 public:
  using Scheduler::OnQueryArrival;
  int OnQueryArrival(const workload::Query& query,
                     const sched::WorkerView& workers) override {
    (void)query;
    waits.push_back(workers.Get(0).wait_ticks);
    return workers.Get(0).index;
  }
  bool UsesCentralQueue() const override { return false; }
  std::string name() const override { return "WaitRecorder"; }

  std::vector<SimTime> waits;
};

TEST(ProfileLookup, EngineEstimateTicksMatchTheOracle) {
  // Queries of every batch (past the grid too) arrive together on one
  // partition.  The first starts at once, so the k-th arrival's Twait is
  // the sum of the engine's estimate ticks for the k queries before it,
  // and each step between two recorded waits is one estimate.
  const ModelRepertoire zoo = BuildZooRepertoire(kZoo);
  std::vector<workload::Query> queries;
  for (int b = 1; b <= zoo.max_batch() + 8; ++b) {
    workload::Query q;
    q.id = queries.size();
    q.batch = b;
    queries.push_back(q);
  }
  for (int m = 0; m < zoo.size(); ++m) {
    const ProfileOracle oracle = ZooOracle(zoo.name(m));
    const ModelRepertoire one = zoo.Subset({m});
    for (int g : {1, 2, 3, 4, 7}) {
      WaitRecorder recorder;
      sim::ServerConfig config;
      config.partition_gpcs = {g};
      config.sla_target = MsToTicks(100.0);
      sim::InferenceServer server(config, one, recorder);
      server.Run(workload::QueryTrace(queries));
      ASSERT_EQ(recorder.waits.size(), queries.size());
      EXPECT_EQ(recorder.waits[0], 0);
      for (std::size_t k = 1; k < queries.size(); ++k) {
        const int b = queries[k - 1].batch;
        EXPECT_EQ(recorder.waits[k] - recorder.waits[k - 1],
                  std::max<SimTime>(1, SecToTicks(oracle.LatencySec(g, b))))
            << zoo.name(m) << " g=" << g << " b=" << b;
      }
    }
  }
}

TEST(ProfileLookup, ActualReadsOneMemoAcrossCopies) {
  // Ground truth is memoized per repertoire entry: a repertoire and its
  // copy read one memo, so each cell's LatencyFn runs once between them.
  const auto truth = [](int gpcs, int batch) {
    return 1.1e-3 * (1.0 + batch) / static_cast<double>(gpcs);
  };
  const auto calls = std::make_shared<int>(0);
  ProfileTable t("m0", {1, 2, 3, 7}, {1, 2, 4, 8, 16, 32});
  for (int g : t.partition_sizes()) {
    for (int b : t.batch_sizes()) t.Set(g, b, {1e-3 * b / g, 0.5});
  }
  const ModelRepertoire rep =
      testing::OneModel(t, [truth, calls](int g, int b) {
        ++*calls;
        return truth(g, b);
      });
  int cells = 0;
  for (int g = 1; g <= 7; ++g) {
    for (int b : {1, 3, 8, 32}) {
      // Twice: the first call fills the memo, the second serves from it.
      EXPECT_EQ(rep.ActualSec(0, g, b), truth(g, b));
      EXPECT_EQ(rep.ActualSec(0, g, b), truth(g, b));
      EXPECT_EQ(*calls, ++cells) << "g=" << g << " b=" << b;
    }
  }
  const ModelRepertoire copy = rep;
  EXPECT_EQ(rep.ActualSec(0, 7, 8), truth(7, 8));
  EXPECT_EQ(copy.ActualSec(0, 3, 32), truth(3, 32));
  EXPECT_EQ(copy.ActualSec(0, 2, 1), truth(2, 1));
  EXPECT_EQ(*calls, cells);
  // Outside the memo grid (batch past the largest profiled one) the
  // LatencyFn is called directly, every time.
  EXPECT_EQ(rep.ActualSec(0, 1, 1000), truth(1, 1000));
  EXPECT_EQ(copy.ActualSec(0, 1, 1000), truth(1, 1000));
  EXPECT_EQ(*calls, cells + 2);
}

TEST(ProfileLookup, UnprofiledSizesAndUnknownModelsThrow) {
  const ModelRepertoire zoo = BuildZooRepertoire({"resnet"});
  EXPECT_THROW(zoo.EstimateSec(0, 5, 8), std::out_of_range);
  EXPECT_THROW(zoo.EstimateSec(0, 6, 8), std::out_of_range);
  EXPECT_THROW(zoo.EstimateSec(0, 8, 8), std::out_of_range);
  EXPECT_THROW(zoo.EstimateSec(0, -1, 8), std::out_of_range);
  EXPECT_THROW(zoo.EstimateSec(1, 1, 8), std::out_of_range);
}

TEST(ProfileLookup, SparseTableHolesMatchTheOracle) {
  // Three sizes, three batches, and holes: (7, 8), (2, 2) and (2, 32).
  const std::vector<int> batches = {2, 8, 32};
  ProfileTable t("sparse", {1, 2, 7}, batches);
  ProfileOracle oracle(batches);
  const struct {
    int gpcs, batch;
    ProfileEntry entry;
  } cells[] = {
      {1, 2, {1e-3, 0.2}},
      {1, 8, {2e-3, 0.5}},
      {1, 32, {8e-3, 0.9}},
      {2, 8, {1.5e-3, 0.4}},
      {7, 2, {0.5e-3, 0.1}},
      {7, 32, {1e-3, 0.4}},
  };
  for (const auto& c : cells) {
    t.Set(c.gpcs, c.batch, c.entry);
    oracle.Set(c.gpcs, c.batch, c.entry);
  }
  testing::ExpectTableMatchesOracle(t, oracle, 9, -2, 40);
  const ModelRepertoire rep =
      testing::OneModel(t, [](int, int) { return 1e-3; });
  EXPECT_EQ(rep.EstimateSec(0, 1, 5), oracle.LatencySec(1, 5));
  EXPECT_EQ(rep.EstimateSec(0, 7, 32), oracle.LatencySec(7, 32));
  // A hole throws, through the table and the repertoire alike.
  EXPECT_THROW(rep.EstimateSec(0, 7, 4), std::out_of_range);
  EXPECT_THROW(rep.EstimateSec(0, 2, 40), std::out_of_range);
}

}  // namespace
}  // namespace pe::profile
