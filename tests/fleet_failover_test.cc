// Fault-tolerant fleet driver acceptance tests:
//  * an EMPTY fault plan is the identity -- record-by-record bit-identical
//    to the fault-free Cluster::Simulate path;
//  * crashing the sole replica of a model sheds (never silently loses)
//    the affected queries, while a replicated crash reroutes them and
//    completes everything;
//  * fault runs are bit-identical at --jobs 1, 2 and hardware
//    concurrency, and across repeated runs with the same seed;
//  * retry instants are computed without overflow, and a retry that
//    would land past the end of SimTime fails like an exhausted budget;
//  * the `--faults` grammar (ParseFaultRef / ResolveFaultPlan) resolves
//    deterministically and rejects unknown presets and keys;
//  * the HealthView's epoch tables answer exactly what the per-server
//    crash windows did.
#include "fleet/failover.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fleet_runner.h"
#include "fleet/fault.h"
#include "workload/trace.h"

namespace pe::fleet {
namespace {

core::FleetTestbedConfig ShardedFleet(int servers, int replicas,
                                      std::uint64_t seed = 0x5EED) {
  core::FleetTestbedConfig fc;
  fc.mix.models.push_back({"resnet", 0.6, 6.0, 0.9});
  fc.mix.models.push_back({"mobilenet", 0.4, 4.0, 0.8});
  fc.mix.swap_cost_us = 200.0;
  fc.num_servers = servers;
  fc.placement = PlacementKind::kSharded;
  fc.replicas = replicas;
  fc.seed = seed;
  return fc;
}

bool SameRecord(const sim::QueryRecord& x, const sim::QueryRecord& y) {
  return x.id == y.id && x.batch == y.batch && x.model == y.model &&
         x.arrival == y.arrival && x.dispatched == y.dispatched &&
         x.started == y.started && x.finished == y.finished &&
         x.worker == y.worker && x.worker_gpcs == y.worker_gpcs &&
         x.model_swap == y.model_swap && x.failed == y.failed &&
         x.shed == y.shed && x.retries == y.retries;
}

void ExpectSameResult(const FleetResult& a, const FleetResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.per_server.size(), b.per_server.size()) << label;
  ASSERT_EQ(a.global_ids, b.global_ids) << label;
  ASSERT_EQ(a.id_offsets, b.id_offsets) << label;
  for (std::size_t s = 0; s < a.per_server.size(); ++s) {
    const auto& ra = a.per_server[s].records;
    const auto& rb = b.per_server[s].records;
    ASSERT_EQ(ra.size(), rb.size()) << label << " server " << s;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_TRUE(SameRecord(ra[i], rb[i]))
          << label << " server " << s << " record " << i;
    }
  }
  EXPECT_EQ(a.fault.completed, b.fault.completed) << label;
  EXPECT_EQ(a.fault.failed, b.fault.failed) << label;
  EXPECT_EQ(a.fault.shed, b.fault.shed) << label;
  EXPECT_EQ(a.fault.retried, b.fault.retried) << label;
  EXPECT_EQ(a.fault.rerouted, b.fault.rerouted) << label;
  EXPECT_EQ(a.fault.repartitions, b.fault.repartitions) << label;
  EXPECT_EQ(a.fault.makespan, b.fault.makespan) << label;
}

TEST(FaultRef, ParsesNameAndOverrides) {
  const auto bare = ParseFaultRef("serverloss");
  EXPECT_EQ(bare.name, "serverloss");
  EXPECT_TRUE(bare.overrides.empty());

  const auto full = ParseFaultRef("cascade:count=3,down-ms=500");
  EXPECT_EQ(full.name, "cascade");
  ASSERT_EQ(full.overrides.size(), 2u);
  EXPECT_EQ(full.overrides[0].first, "count");
  EXPECT_EQ(full.overrides[0].second, "3");
  EXPECT_EQ(full.overrides[1].first, "down-ms");
  EXPECT_EQ(full.overrides[1].second, "500");

  EXPECT_THROW(ParseFaultRef(""), std::invalid_argument);
  EXPECT_THROW(ParseFaultRef("flaky:count"), std::invalid_argument);
}

TEST(FaultPlanResolve, PresetsAreDeterministicAndValidated) {
  const auto placement = ShardedPlacement(6, 2, 3);
  const SimTime span = MsToTicks(10'000.0);

  EXPECT_TRUE(ResolveFaultPlan({"none", {}}, placement, span, 1).empty());
  EXPECT_THROW(ResolveFaultPlan({"meteor", {}}, placement, span, 1),
               std::invalid_argument);
  EXPECT_THROW(
      ResolveFaultPlan({"serverloss", {{"bogus", "1"}}}, placement, span, 1),
      std::invalid_argument);

  // Same (spec, seed) -> same schedule; schedules are sorted by time.
  for (const std::string name :
       {"serverloss", "flaky", "brownout", "cascade"}) {
    const auto a = ResolveFaultPlan({name, {}}, placement, span, 42);
    const auto b = ResolveFaultPlan({name, {}}, placement, span, 42);
    ASSERT_EQ(a.events.size(), b.events.size()) << name;
    EXPECT_FALSE(a.empty()) << name;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(a.events[i].time, b.events[i].time) << name;
      EXPECT_EQ(a.events[i].kind, b.events[i].kind) << name;
      EXPECT_EQ(a.events[i].server, b.events[i].server) << name;
      EXPECT_EQ(a.events[i].worker, b.events[i].worker) << name;
      EXPECT_EQ(a.events[i].factor, b.events[i].factor) << name;
      if (i > 0) {
        EXPECT_GE(a.events[i].time, a.events[i - 1].time) << name;
      }
    }
  }

  // Policy-knob overrides land on the plan, and count clamps to the fleet.
  const auto tuned = ResolveFaultPlan(
      {"serverloss",
       {{"count", "99"}, {"retries", "5"}, {"deadline-ms", "800"},
        {"repartition", "0"}}},
      placement, span, 7);
  EXPECT_EQ(tuned.max_retries, 5);
  EXPECT_EQ(tuned.deadline, MsToTicks(800.0));
  EXPECT_FALSE(tuned.repartition);
  EXPECT_EQ(tuned.events.size(), 6u);  // one crash per server, clamped
}

TEST(FaultPlanResolve, RejectsNonFiniteNegativeAndOverflowingValues) {
  const auto placement = ShardedPlacement(6, 2, 3);
  const SimTime span = MsToTicks(10'000.0);
  using Overrides = std::vector<std::pair<std::string, std::string>>;
  const auto error = [&](Overrides overrides) {
    try {
      ResolveFaultPlan({"serverloss", std::move(overrides)}, placement, span,
                       1);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const auto names_key = [&](const std::string& key, const std::string& val) {
    const std::string message = error({{key, val}});
    EXPECT_NE(message.find("'" + key + "'"), std::string::npos)
        << key << "=" << val << ": " << message;
  };
  std::vector<std::string> ms_keys;
  for (const char* d : {"at", "down", "stagger", "backoff", "deadline"}) {
    ms_keys.push_back(std::string(d) + "-ms");
  }
  ms_keys.push_back("downtime-ms");
  std::vector<std::string> keys = {"count", "factor", "retries", "repartition"};
  keys.insert(keys.end(), ms_keys.begin(), ms_keys.end());
  for (const std::string& key : keys) {
    for (const char* val : {"nan", "inf", "-1"}) names_key(key, val);
  }
  // 1e30 overflows an int or the tick clock wherever a key holds one.
  for (const std::string& key : ms_keys) names_key(key, "1e30");
  names_key("count", "1e30");
  names_key("retries", "1e30");
  names_key("count", "2147483648");
  EXPECT_EQ(error({{"count", "2147483647"}}), "accepted");
  EXPECT_EQ(error({{"retries", "2147483647"}}), "accepted");
  // A factor must be above 0; any finite factor or switch value above it
  // is fine.
  names_key("factor", "0");
  EXPECT_EQ(error({{"factor", "1e30"}}), "accepted");
  EXPECT_EQ(error({{"repartition", "1e30"}}), "accepted");
  // Durations that each fit, but whose event time does not.
  EXPECT_NE(error({{"at-ms", "9e12"}, {"down-ms", "9e12"}}).find("overflows"),
            std::string::npos);
}

TEST(FleetFailover, EmptyPlanIsBitIdenticalToTheBatchPath) {
  const core::FleetTestbed tb(ShardedFleet(4, 2));
  const auto trace = tb.GenerateFleetTrace(600.0, 4000, /*seed=*/7);
  const auto base = tb.Run(trace, /*jobs=*/2);
  const auto faulted = tb.RunWithFaults(trace, FaultPlan{}, /*jobs=*/2);
  EXPECT_FALSE(faulted.fault.faulted);
  ExpectSameResult(base, faulted, "empty plan");
}

TEST(FleetFailover, SoleReplicaCrashShedsInsteadOfLosingQueries) {
  // 2 servers, 2 models, replicas=1: each server is the sole host of one
  // model (no empty server for the backfill rule to pad), so crashing
  // server 0 leaves its model with NO healthy replica -- the affected
  // queries must shed or fail, loudly accounted, never silently dropped.
  const core::FleetTestbed tb(ShardedFleet(2, 1));
  const auto trace = tb.GenerateFleetTrace(300.0, 3000, /*seed=*/11);
  FaultPlan plan;
  plan.name = "manual-crash";
  plan.events.push_back({trace.queries().back().arrival / 4,
                         FaultKind::kServerCrash, /*server=*/0});
  const auto result = tb.RunWithFaults(trace, plan, /*jobs=*/2);
  const auto& f = result.fault;
  EXPECT_TRUE(f.faulted);
  EXPECT_EQ(f.injected, trace.size());
  EXPECT_EQ(f.completed + f.failed + f.shed, f.injected);
  EXPECT_GT(f.failed + f.shed, 0u);
  EXPECT_LT(f.completed, f.injected);
  // Permanent crash at span/4: server 0's availability is about 25%.
  ASSERT_EQ(f.availability.size(), 2u);
  EXPECT_LT(f.availability[0], 0.5);
  EXPECT_EQ(f.availability[1], 1.0);
}

TEST(FleetFailover, SoleReplicaPreShedsMatchAcrossPatchChunksAndJobs) {
  // The health patch runs per 64k-row chunk of the trace.  A sole-replica
  // crash early in a trace of two chunks and more pre-sheds its model's
  // later arrivals in every chunk: the result must not depend on how many
  // threads patch them, and every query must still be accounted for.
  constexpr std::size_t kChunkRows = 65536;
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  const core::FleetTestbed tb(ShardedFleet(2, 1));
  const auto trace =
      tb.GenerateFleetTrace(300.0, 2 * kChunkRows + 5000, /*seed=*/29);
  const SimTime crash = trace.queries()[kChunkRows / 2].arrival;
  FaultPlan plan;
  plan.name = "manual-crash";
  plan.events.push_back({crash, FaultKind::kServerCrash, /*server=*/0});

  // The rows nobody can take: server 0's model, arriving from the crash on.
  const std::vector<int>& hosted = tb.placement().server(0).model_ids;
  ASSERT_EQ(hosted.size(), 1u);
  ASSERT_EQ(tb.placement().Replicas(hosted[0]).size(), 1u);
  std::vector<bool> pre_shed(trace.size(), false);
  std::vector<std::size_t> per_chunk(3, 0);
  for (const workload::Query& q : trace.queries()) {
    if (q.model_id != hosted[0] || q.arrival < crash) continue;
    pre_shed[q.id] = true;
    ++per_chunk[q.id / kChunkRows];
  }
  for (std::size_t c = 0; c < per_chunk.size(); ++c) {
    ASSERT_GT(per_chunk[c], 0u) << "chunk " << c;
  }

  const auto base = tb.RunWithFaults(trace, plan, /*jobs=*/1);
  for (const int jobs : {3, hw}) {
    ExpectSameResult(base, tb.RunWithFaults(trace, plan, jobs),
                     "jobs=" + std::to_string(jobs));
  }
  const auto& f = base.fault;
  EXPECT_EQ(f.injected, trace.size());
  EXPECT_EQ(f.completed + f.failed + f.shed, f.injected);
  EXPECT_GE(f.shed, per_chunk[0] + per_chunk[1] + per_chunk[2]);
  EXPECT_EQ(f.rerouted, 0u);  // no replica to divert to
  const auto reached = std::count_if(
      base.global_ids.begin(), base.global_ids.end(),
      [&](std::uint64_t gid) { return pre_shed[gid]; });
  EXPECT_EQ(reached, 0) << "pre-shed rows must never reach an engine";
}

TEST(FleetFailover, ReplicatedCrashReroutesEverythingWithoutLoss) {
  // replicas=3: two healthy replicas survive any single crash, so every
  // query must complete -- casualties retry, down-window arrivals divert.
  const core::FleetTestbed tb(ShardedFleet(6, 3));
  const auto trace = tb.GenerateFleetTrace(900.0, 6000, /*seed=*/13);
  FaultPlan plan;
  plan.name = "manual-crash";
  plan.events.push_back({trace.queries().back().arrival / 4,
                         FaultKind::kServerCrash, /*server=*/0});
  const auto result = tb.RunWithFaults(trace, plan, /*jobs=*/2);
  const auto& f = result.fault;
  EXPECT_EQ(f.completed, f.injected);
  EXPECT_EQ(f.failed, 0u);
  EXPECT_EQ(f.shed, 0u);
  EXPECT_GT(f.rerouted, 0u);
  EXPECT_LT(f.availability[0], 1.0);
  // The crashed engine must end with no un-terminal record.
  for (const auto& sr : result.per_server) {
    for (const auto& r : sr.records) {
      EXPECT_TRUE(r.finished > 0 || r.failed || r.shed);
    }
  }
}

TEST(FleetFailover, SlowdownWindowShowsUpAsIncidentLatency) {
  const core::FleetTestbed tb(ShardedFleet(4, 2));
  const auto trace = tb.GenerateFleetTrace(600.0, 4000, /*seed=*/17);
  const SimTime span = trace.queries().back().arrival;
  FaultPlan plan;
  plan.name = "manual-brownout";
  plan.events.push_back(
      {span / 4, FaultKind::kSlowdownBegin, /*server=*/1, -1, 4.0});
  plan.events.push_back({(span * 3) / 4, FaultKind::kSlowdownEnd, 1});
  const auto result = tb.RunWithFaults(trace, plan, /*jobs=*/2);
  const auto& f = result.fault;
  // A slowdown degrades, it does not lose: everything still completes and
  // the incident-window tail is measured.
  EXPECT_EQ(f.completed, f.injected);
  EXPECT_GT(f.incident_completions, 0u);
  EXPECT_GT(f.p99_incident_ms, 0.0);
  // No crash anywhere: availability stays 1.0 (slowdowns are not downtime).
  for (const double a : f.availability) EXPECT_EQ(a, 1.0);
}

TEST(FleetFailover, BitIdenticalAcrossJobsAndRepeatedRuns) {
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  const core::FleetTestbed tb(ShardedFleet(6, 3));
  const auto trace = tb.GenerateFleetTrace(900.0, 5000, /*seed=*/19);
  const auto plan = tb.ResolveFaults(ParseFaultRef("cascade:down-ms=400"),
                                     trace);
  const auto base = tb.RunWithFaults(trace, plan, /*jobs=*/1);
  for (const int jobs : {2, hw}) {
    ExpectSameResult(base, tb.RunWithFaults(trace, plan, jobs),
                     "jobs=" + std::to_string(jobs));
  }
  // Re-resolving the same spec yields the same plan, hence the same run.
  const auto replan = tb.ResolveFaults(ParseFaultRef("cascade:down-ms=400"),
                                       trace);
  ExpectSameResult(base, tb.RunWithFaults(trace, replan, /*jobs=*/2),
                   "re-resolved plan");
}

TEST(FleetFailover, RetryInstantIsCheckedAgainstOverflow) {
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  const SimTime t = MsToTicks(1000.0);
  const SimTime backoff = MsToTicks(50.0);
  EXPECT_EQ(RetryInstant(t, backoff, 1), t + backoff);
  // 50 ms * 2^37 is about 6.9e18 ns and still fits; twice that does not,
  // and from attempt 64 on 2^(attempt - 1) itself leaves int64.
  EXPECT_EQ(RetryInstant(t, backoff, 38), t + backoff * (SimTime{1} << 37));
  for (const int attempt : {39, 63, 64, 100}) {
    EXPECT_EQ(RetryInstant(t, backoff, attempt), std::nullopt) << attempt;
  }
  // Without a backoff every attempt retries at once.
  for (const int attempt : {1, 38, 39, 63, 64, 100}) {
    EXPECT_EQ(RetryInstant(t, 0, attempt), t) << attempt;
  }
  // The edges of the representable range.
  EXPECT_EQ(RetryInstant(kMax - 1, 1, 1), kMax);
  EXPECT_EQ(RetryInstant(kMax, 1, 1), std::nullopt);
  EXPECT_EQ(RetryInstant(0, 1, 63), SimTime{1} << 62);
  EXPECT_EQ(RetryInstant(0, 1, 64), std::nullopt);
  EXPECT_THROW((void)RetryInstant(-1, backoff, 1), std::invalid_argument);
  EXPECT_THROW((void)RetryInstant(t, -1, 1), std::invalid_argument);
  EXPECT_THROW((void)RetryInstant(t, backoff, 0), std::invalid_argument);
}

TEST(FleetFailover, OverflowingRetryFailsLikeAnExhaustedBudget) {
  const core::FleetTestbed tb(ShardedFleet(6, 3));
  const auto trace = tb.GenerateFleetTrace(900.0, 4000, /*seed=*/23);
  FaultPlan plan;
  plan.name = "manual-crash";
  plan.repartition = false;
  plan.events.push_back({trace.queries().back().arrival / 4,
                         FaultKind::kServerCrash, /*server=*/0});
  plan.max_retries = 0;
  const auto exhausted = tb.RunWithFaults(trace, plan, /*jobs=*/2);
  EXPECT_GT(exhausted.fault.failed, 0u);
  EXPECT_EQ(exhausted.fault.retried, 0u);
  // A budget of a thousand retries whose first backoff already runs past
  // the end of SimTime: every casualty fails, as with no budget at all.
  plan.max_retries = 1000;
  plan.retry_backoff = std::numeric_limits<SimTime>::max();
  ExpectSameResult(exhausted, tb.RunWithFaults(trace, plan, /*jobs=*/2),
                   "overflowing backoff");
}

TEST(FleetFailover, HealthViewWindowsMatchTheSchedule) {
  FaultPlan plan;
  plan.events.push_back({100, FaultKind::kServerCrash, 0});
  plan.events.push_back({200, FaultKind::kServerRecover, 0});
  plan.events.push_back({400, FaultKind::kSlowdownBegin, 1, -1, 2.0});
  plan.events.push_back({500, FaultKind::kSlowdownEnd, 1});
  const HealthView hv(plan, UniformPlacement(/*num_servers=*/2, 1));
  EXPECT_TRUE(hv.IsUp(0, 99));
  EXPECT_FALSE(hv.IsUp(0, 100));   // down window is [crash, recover)
  EXPECT_FALSE(hv.IsUp(0, 199));
  EXPECT_TRUE(hv.IsUp(0, 200));
  EXPECT_TRUE(hv.IsUp(1, 450));    // slowdown is degraded, not down
  EXPECT_EQ(hv.DownTicks(0, /*horizon=*/1000), 100);
  EXPECT_EQ(hv.DownTicks(1, /*horizon=*/1000), 0);
  EXPECT_TRUE(hv.InIncident(150));
  EXPECT_TRUE(hv.InIncident(450));
  EXPECT_FALSE(hv.InIncident(300));
  EXPECT_FALSE(hv.InIncident(990));
}

TEST(FleetFailover, HealthViewEpochsMatchTheWindowRule) {
  // The view's epoch tables against the rule they replaced: a server is
  // down inside the [crash, matching recover) windows of its schedule,
  // where a crash of a down server and a recover of an up one are
  // ignored.  The schedule mixes overlapping and repeated crashes, a
  // recover of an up server, crash and recover at one instant in both
  // orders, a permanent crash, and worker and slowdown events.
  const PlacementMap placement = ShardedPlacement(6, 3, 3);
  FaultPlan plan;
  plan.events = {
      {100, FaultKind::kServerCrash, 0},
      {100, FaultKind::kWorkerFail, 1, 0},
      {150, FaultKind::kServerCrash, 0},
      {150, FaultKind::kServerCrash, 2},
      {200, FaultKind::kServerRecover, 0},
      {200, FaultKind::kServerRecover, 3},
      {250, FaultKind::kServerCrash, 4},
      {250, FaultKind::kServerRecover, 4},
      {300, FaultKind::kServerRecover, 2},
      {300, FaultKind::kServerCrash, 2},
      {400, FaultKind::kSlowdownBegin, 5, -1, 2.0},
      {450, FaultKind::kServerCrash, 5},
      {450, FaultKind::kServerCrash, 3},
      {500, FaultKind::kServerCrash, 1},
      {600, FaultKind::kServerRecover, 2},
      {650, FaultKind::kWorkerRecover, 1, 0},
      {700, FaultKind::kSlowdownEnd, 5},
      {800, FaultKind::kServerRecover, 5},
      {800, FaultKind::kServerRecover, 3},
  };
  constexpr SimTime kForever = std::numeric_limits<SimTime>::max();
  std::vector<std::vector<std::pair<SimTime, SimTime>>> windows(6);
  std::vector<SimTime> open(6, -1);
  for (const FaultEvent& ev : plan.events) {
    const auto s = static_cast<std::size_t>(ev.server);
    if (ev.kind == FaultKind::kServerCrash && open[s] < 0) {
      open[s] = ev.time;
    } else if (ev.kind == FaultKind::kServerRecover && open[s] >= 0) {
      windows[s].push_back({open[s], ev.time});
      open[s] = -1;
    }
  }
  for (std::size_t s = 0; s < 6; ++s) {
    if (open[s] >= 0) windows[s].push_back({open[s], kForever});
  }
  const auto down = [&](int s, SimTime t) {
    for (const auto& [begin, end] : windows[static_cast<std::size_t>(s)]) {
      if (begin <= t && t < end) return true;
    }
    return false;
  };

  const HealthView hv(plan, placement);
  std::vector<SimTime> probes = {0, 10'000};
  for (const FaultEvent& ev : plan.events) {
    for (const SimTime d : {-1, 0, 1}) probes.push_back(ev.time + d);
  }
  for (const SimTime t : probes) {
    for (int s = 0; s < placement.num_servers(); ++s) {
      EXPECT_EQ(hv.IsUp(s, t), !down(s, t)) << "server " << s << " t " << t;
    }
    for (int m = 0; m < placement.num_models(); ++m) {
      std::vector<int> want;
      for (const int r : placement.Replicas(m)) {
        if (!down(r, t)) want.push_back(r);
      }
      const auto got = hv.Healthy(m, t);
      EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want)
          << "model " << m << " t " << t;
    }
  }
  // Down ticks: the measure of each server's windows clipped to the
  // horizon (the windows of one server never overlap).
  const SimTime horizons[] = {0, 120, 475, 1000};
  for (const SimTime horizon : horizons) {
    for (int s = 0; s < placement.num_servers(); ++s) {
      SimTime want = 0;
      for (const auto& [begin, end] : windows[static_cast<std::size_t>(s)]) {
        want += std::min(end, horizon) - std::min(begin, horizon);
      }
      EXPECT_EQ(hv.DownTicks(s, horizon), want)
          << "server " << s << " horizon " << horizon;
    }
  }
}

}  // namespace
}  // namespace pe::fleet
