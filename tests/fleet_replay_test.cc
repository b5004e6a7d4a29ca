// Replay fidelity for versioned trace capture (satellite of the scenario
// API): a trace captured from a fleet run and round-tripped through the
// paris-elsa-trace-v1 format must drive the engine to record-by-record
// identical results at any jobs count, and a per-server sub-trace
// captured with symbolic model names must replay standalone.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/fleet_runner.h"
#include "stats_oracle.h"
#include "workload/scenario.h"
#include "workload/trace_io.h"

namespace pe::core {
namespace {

FleetTestbedConfig TestFleet(int servers) {
  FleetTestbedConfig fc;
  fc.mix.models.push_back({"resnet", 0.6, 6.0, 0.9});
  fc.mix.models.push_back({"mobilenet", 0.4, 4.0, 0.8});
  fc.mix.swap_cost_us = 200.0;
  fc.mix.latency_noise_sigma = 0.2;  // exercise the engines' RNG streams
  fc.num_servers = servers;
  return fc;
}

// Scenario-shaped fleet workload: the flashcrowd preset over this fleet's
// mix, captured the way the CLI's --capture-trace path does it.
workload::TraceDocument CaptureFleetTrace(const FleetTestbed& tb,
                                          std::size_t n, std::uint64_t seed) {
  workload::ScenarioSpec spec = tb.mix().ScenarioFor(/*rate_qps=*/800.0);
  workload::ApplyScenario(spec, "flashcrowd:at=1,mult=6,decay=2");
  workload::TraceDocument doc;
  doc.scenario = "flashcrowd:at=1,mult=6,decay=2";
  doc.models = tb.mix().ModelNames();
  doc.trace = workload::GenerateScenarioTrace(spec, n, seed);
  return doc;
}

void ExpectIdenticalRecords(const std::vector<sim::QueryRecord>& a,
                            const std::vector<sim::QueryRecord>& b,
                            const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << label << " record " << i;
    EXPECT_EQ(a[i].batch, b[i].batch) << label << " record " << i;
    EXPECT_EQ(a[i].model, b[i].model) << label << " record " << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << label << " record " << i;
    EXPECT_EQ(a[i].dispatched, b[i].dispatched) << label << " record " << i;
    EXPECT_EQ(a[i].started, b[i].started) << label << " record " << i;
    EXPECT_EQ(a[i].finished, b[i].finished) << label << " record " << i;
    EXPECT_EQ(a[i].worker, b[i].worker) << label << " record " << i;
    EXPECT_EQ(a[i].model_swap, b[i].model_swap) << label << " record " << i;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(FleetReplay, CapturedTraceRoundTripsBitFaithfully) {
  const FleetTestbed tb(TestFleet(4));
  const auto doc = CaptureFleetTrace(tb, 3000, /*seed=*/7);

  std::stringstream ss;
  workload::SaveTrace(ss, doc);
  const auto loaded = workload::LoadTrace(ss);

  EXPECT_EQ(loaded.scenario, doc.scenario);
  EXPECT_EQ(loaded.models, doc.models);
  ASSERT_EQ(loaded.trace.size(), doc.trace.size());
  for (std::size_t i = 0; i < doc.trace.size(); ++i) {
    const auto& a = doc.trace.queries()[i];
    const auto& b = loaded.trace.queries()[i];
    ASSERT_EQ(a.arrival, b.arrival) << "query " << i;
    ASSERT_EQ(a.batch, b.batch) << "query " << i;
    ASSERT_EQ(a.model_id, b.model_id) << "query " << i;
  }
}

// The headline fidelity contract: capture from a 4-server fleet run,
// replay the loaded trace, and the replay is indistinguishable from the
// original run -- record by record, server by server, at any jobs count.
TEST(FleetReplay, ReplayReproducesTheOriginalRun) {
  const FleetTestbed tb(TestFleet(4));
  const auto doc = CaptureFleetTrace(tb, 3000, /*seed=*/11);

  // Original run on the generated trace.
  const auto original = tb.Run(doc.trace, /*jobs=*/1);

  // Round-trip the capture, then replay it at two jobs counts.
  std::stringstream ss;
  workload::SaveTrace(ss, doc);
  const auto loaded = workload::LoadTrace(ss);
  for (const int jobs : {2, 4}) {
    const auto replay = tb.Run(loaded.trace, jobs);
    const std::string run = "jobs " + std::to_string(jobs);
    ASSERT_EQ(replay.per_server.size(), original.per_server.size());
    for (std::size_t s = 0; s < original.per_server.size(); ++s) {
      ExpectIdenticalRecords(original.per_server[s].records,
                             replay.per_server[s].records,
                             run + " server " + std::to_string(s));
      if (::testing::Test::HasFailure()) return;
    }

    // And the merged fleet statistics agree exactly.
    const auto sla = tb.sla_target();
    const auto original_stats = original.Stats(sla);
    const auto replay_stats = replay.Stats(sla, 0.1, jobs);
    EXPECT_EQ(replay_stats.routed_queries, original_stats.routed_queries);
    testing::ExpectIdenticalServerStats(
        original_stats.aggregate, replay_stats.aggregate, run + " aggregate");
    for (std::size_t s = 0; s < original_stats.per_server.size(); ++s) {
      testing::ExpectIdenticalServerStats(
          original_stats.per_server[s], replay_stats.per_server[s],
          run + " server " + std::to_string(s) + " stats");
    }
  }
}

// A per-server sub-trace (local dense ids, server-local model ids) captured
// with the *server's* symbolic model names replays standalone: the loaded
// models[] is the complete repertoire the replay needs, independent of the
// fleet-global numbering.
TEST(FleetReplay, ServerSubTraceReplaysStandalone) {
  FleetTestbedConfig fc = TestFleet(4);
  fc.placement = fleet::PlacementKind::kSharded;
  fc.replicas = 2;
  const FleetTestbed tb(fc);
  const auto doc = CaptureFleetTrace(tb, 2000, /*seed=*/13);
  const auto fleet_run = tb.Run(doc.trace, /*jobs=*/2);

  const auto fleet_names = tb.mix().ModelNames();
  for (int s = 0; s < tb.placement().num_servers(); ++s) {
    const auto& result = fleet_run.per_server[s];
    if (result.records.empty()) continue;

    // Reconstruct this server's sub-trace exactly as its engine saw it:
    // local dense ids, server-local model ids, fleet arrival times.
    std::vector<workload::Query> qs;
    qs.reserve(result.records.size());
    for (const auto& rec : result.records) {
      workload::Query q;
      q.id = rec.id;
      q.arrival = rec.arrival;
      q.batch = rec.batch;
      q.model_id = rec.model;
      qs.push_back(q);
    }
    workload::TraceDocument sub;
    sub.scenario = doc.scenario + " [server " + std::to_string(s) + "]";
    for (const int global_model : fleet_run.global_models[s]) {
      sub.models.push_back(fleet_names[static_cast<std::size_t>(global_model)]);
    }
    sub.trace = workload::QueryTrace(std::move(qs));

    std::stringstream ss;
    workload::SaveTrace(ss, sub);
    const auto loaded = workload::LoadTrace(ss);

    // The loaded sub-trace is self-describing: every model id resolves
    // against its own models[], and the payload is bit-identical.
    ASSERT_EQ(loaded.trace.size(), result.records.size()) << "server " << s;
    EXPECT_EQ(loaded.models.size(), fleet_run.global_models[s].size());
    for (std::size_t i = 0; i < loaded.trace.size(); ++i) {
      const auto& q = loaded.trace.queries()[i];
      EXPECT_EQ(q.id, i) << "server " << s;
      EXPECT_LT(static_cast<std::size_t>(q.model_id), loaded.models.size())
          << "server " << s;
      EXPECT_EQ(q.arrival, result.records[i].arrival) << "server " << s;
      EXPECT_EQ(q.batch, result.records[i].batch) << "server " << s;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace pe::core
