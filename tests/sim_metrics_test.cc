#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "stats_oracle.h"

namespace pe::sim {
namespace {

QueryRecord Rec(std::uint64_t id, SimTime arrival, SimTime started,
                SimTime finished, int worker = 0, int gpcs = 1) {
  QueryRecord r;
  r.id = id;
  r.batch = 1;
  r.arrival = arrival;
  r.dispatched = arrival;
  r.started = started;
  r.finished = finished;
  r.worker = worker;
  r.worker_gpcs = gpcs;
  return r;
}

TEST(QueryRecord, LatencyAndQueueDelay) {
  const auto r = Rec(0, MsToTicks(1), MsToTicks(3), MsToTicks(8));
  EXPECT_EQ(r.Latency(), MsToTicks(7));
  EXPECT_EQ(r.QueueDelay(), MsToTicks(2));
}

TEST(ComputeStats, EmptyRecords) {
  const auto s = ComputeStats({}, MsToTicks(10));
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.p95_latency_ms, 0.0);
  EXPECT_EQ(s.achieved_qps, 0.0);
  EXPECT_EQ(s.mean_worker_utilization, 0.0);
  EXPECT_EQ(s.reconfig_stalled, 0u);
  EXPECT_TRUE(s.workers.empty());
}

TEST(ComputeStats, ZeroLengthSpanYieldsZeroedRates) {
  // A single record whose measurement window has zero length (arrival ==
  // finished): latency stats are real, rate/utilization metrics zero out
  // instead of dividing by the zero-length span.  Possible in a short
  // reconfig-heavy epoch slice.
  QueryRecord r = Rec(0, MsToTicks(5), MsToTicks(5), MsToTicks(5));
  const std::vector<QueryRecord> recs = {r};
  const auto s = ComputeStats(recs, MsToTicks(10), 0.0);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_DOUBLE_EQ(s.mean_latency_ms, 0.0);
  EXPECT_EQ(s.achieved_qps, 0.0);
  EXPECT_EQ(s.mean_worker_utilization, 0.0);
  // The per-worker breakdown still exists, with zero utilization.
  ASSERT_EQ(s.workers.size(), 1u);
  EXPECT_DOUBLE_EQ(s.workers[0].utilization, 0.0);
}

TEST(ComputeStats, ReusedWorkerIndexAcrossLayoutsStaysSeparate) {
  // A live reconfiguration reuses worker indices: index 0 was a GPU(7)
  // before the swap and a GPU(4) after.  The per-worker breakdown (and
  // the GPC-weighted utilization) must keep the two partitions distinct.
  std::vector<QueryRecord> recs = {
      Rec(0, 0, 0, MsToTicks(5), /*worker=*/0, /*gpcs=*/7),
      Rec(1, 0, MsToTicks(5), MsToTicks(10), /*worker=*/0, /*gpcs=*/4),
  };
  const auto s = ComputeStats(recs, MsToTicks(100), 0.0);
  ASSERT_EQ(s.workers.size(), 2u);
  EXPECT_EQ(s.workers[0].gpcs, 4);
  EXPECT_EQ(s.workers[1].gpcs, 7);
  EXPECT_EQ(s.workers[0].queries, 1u);
  EXPECT_EQ(s.workers[1].queries, 1u);
}

TEST(ComputeStats, CountsReconfigStalledQueries) {
  std::vector<QueryRecord> recs;
  for (int i = 0; i < 6; ++i) {
    QueryRecord r = Rec(static_cast<std::uint64_t>(i), MsToTicks(i),
                        MsToTicks(i), MsToTicks(i + 2));
    r.reconfig_stalls = (i % 3 == 0) ? 2 : 0;
    recs.push_back(r);
  }
  const auto s = ComputeStats(recs, MsToTicks(10), 0.0);
  EXPECT_EQ(s.reconfig_stalled, 2u);  // ids 0 and 3
}

TEST(ComputeStats, SingleRecordNoWarmup) {
  std::vector<QueryRecord> recs = {Rec(0, 0, 0, MsToTicks(5))};
  const auto s = ComputeStats(recs, MsToTicks(10), 0.0);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_DOUBLE_EQ(s.mean_latency_ms, 5.0);
  EXPECT_DOUBLE_EQ(s.p95_latency_ms, 5.0);
  EXPECT_DOUBLE_EQ(s.sla_violation_rate, 0.0);
}

TEST(ComputeStats, ViolationRateCounted) {
  std::vector<QueryRecord> recs;
  for (int i = 0; i < 10; ++i) {
    const SimTime lat = (i < 3) ? MsToTicks(20) : MsToTicks(5);
    recs.push_back(Rec(static_cast<std::uint64_t>(i), MsToTicks(i),
                       MsToTicks(i), MsToTicks(i) + lat));
  }
  const auto s = ComputeStats(recs, MsToTicks(10), 0.0);
  EXPECT_DOUBLE_EQ(s.sla_violation_rate, 0.3);
}

TEST(ComputeStats, WarmupDiscardsEarlyRecords) {
  std::vector<QueryRecord> recs;
  // First 10% (one record) has a huge latency; warmup removes it.
  recs.push_back(Rec(0, 0, 0, MsToTicks(1000)));
  for (int i = 1; i < 10; ++i) {
    recs.push_back(Rec(static_cast<std::uint64_t>(i), MsToTicks(i),
                       MsToTicks(i), MsToTicks(i + 1)));
  }
  const auto with_warmup = ComputeStats(recs, MsToTicks(10), 0.1);
  EXPECT_EQ(with_warmup.completed, 9u);
  EXPECT_DOUBLE_EQ(with_warmup.max_latency_ms, 1.0);
  const auto without = ComputeStats(recs, MsToTicks(10), 0.0);
  EXPECT_DOUBLE_EQ(without.max_latency_ms, 1000.0);
}

TEST(ComputeStats, PerWorkerUtilization) {
  // Two workers over a 10 ms window: worker 0 busy 5 ms, worker 1 busy 10.
  std::vector<QueryRecord> recs = {
      Rec(0, 0, 0, MsToTicks(5), /*worker=*/0, /*gpcs=*/1),
      Rec(1, 0, 0, MsToTicks(10), /*worker=*/1, /*gpcs=*/7),
  };
  const auto s = ComputeStats(recs, MsToTicks(100), 0.0);
  ASSERT_EQ(s.workers.size(), 2u);
  EXPECT_DOUBLE_EQ(s.workers[0].utilization, 0.5);
  EXPECT_DOUBLE_EQ(s.workers[1].utilization, 1.0);
  // GPC-weighted mean: (0.5*1 + 1.0*7) / 8.
  EXPECT_NEAR(s.mean_worker_utilization, 7.5 / 8.0, 1e-12);
}

TEST(ComputeStats, AchievedQpsOverWindow) {
  std::vector<QueryRecord> recs;
  for (int i = 0; i < 11; ++i) {
    recs.push_back(Rec(static_cast<std::uint64_t>(i), MsToTicks(i * 100),
                       MsToTicks(i * 100), MsToTicks(i * 100 + 1)));
  }
  const auto s = ComputeStats(recs, MsToTicks(10), 0.0);
  // 11 completions over ~1.001 s.
  EXPECT_NEAR(s.achieved_qps, 11.0 / 1.001, 0.1);
}

TEST(ComputeStats, WarmupCutsByQueryIdNotPosition) {
  // Records supplied out of id order; the warmup cut is keyed by query id
  // (ids below floor(0.5 * 2) = 1 are left out), wherever they sit.
  std::vector<QueryRecord> recs = {
      Rec(1, MsToTicks(100), MsToTicks(100), MsToTicks(101)),
      Rec(0, 0, 0, MsToTicks(1000)),  // earliest arrival, huge latency
  };
  const auto s = ComputeStats(recs, MsToTicks(10), 0.5);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_DOUBLE_EQ(s.max_latency_ms, 1.0);
  EXPECT_EQ(WarmupCut(0.1, 25), 2u);
  EXPECT_EQ(WarmupCut(0.0, 25), 0u);
}

std::vector<QueryRecord> MixedRecords() {
  std::vector<QueryRecord> recs;
  for (int i = 0; i < 40; ++i) {
    const SimTime arrival = MsToTicks(0.37 * i);
    QueryRecord r = Rec(static_cast<std::uint64_t>(i), arrival,
                        arrival + UsToTicks(13.0 * (i % 7)),
                        arrival + UsToTicks(900.0 + 71.0 * ((i * 11) % 17)),
                        /*worker=*/i % 3, /*gpcs=*/1 + i % 3);
    r.model = i % 2;
    r.model_swap = i % 5 == 0;
    r.failed = i == 17;
    recs.push_back(r);
  }
  return recs;
}

TEST(StatsAccumulator, AnyOrderAnySplitGivesTheSameStats) {
  // Integer tick sums and order statistics: shuffling the records, or
  // splitting them over partials merged back, changes no field.
  const auto recs = MixedRecords();
  StatsAccumulator whole(MsToTicks(1.5));
  for (const auto& r : recs) whole.Add(r);
  const ServerStats want = whole.Finish();
  ASSERT_EQ(want.models.size(), 2u);
  EXPECT_EQ(want.failed, 1u);

  StatsAccumulator reversed(MsToTicks(1.5));
  for (auto it = recs.rbegin(); it != recs.rend(); ++it) reversed.Add(*it);
  testing::ExpectIdenticalServerStats(reversed.Finish(), want, "reversed");

  StatsAccumulator merged(MsToTicks(1.5));
  for (int part = 0; part < 3; ++part) {
    StatsAccumulator partial(MsToTicks(1.5));
    for (std::size_t i = static_cast<std::size_t>(part); i < recs.size();
         i += 3) {
      partial.Add(recs[i]);
    }
    (void)partial.Finish();  // finishing a partial first changes nothing
    merged.Merge(std::move(partial));
  }
  testing::ExpectIdenticalServerStats(merged.Finish(), want, "merged");
}

TEST(StatsAccumulator, MergeShiftsWorkerIndices) {
  StatsAccumulator a(MsToTicks(10));
  a.Add(Rec(0, 0, 0, MsToTicks(2), /*worker=*/0, /*gpcs=*/7));
  StatsAccumulator b(MsToTicks(10));
  b.Add(Rec(1, 0, 0, MsToTicks(4), /*worker=*/0, /*gpcs=*/3));
  StatsAccumulator fleet(MsToTicks(10));
  fleet.Merge(std::move(a), /*worker_base=*/0);
  fleet.Merge(std::move(b), /*worker_base=*/5);
  const auto s = fleet.Finish();
  ASSERT_EQ(s.workers.size(), 2u);
  EXPECT_EQ(s.workers[0].index, 0);
  EXPECT_EQ(s.workers[1].index, 5);
  EXPECT_EQ(s.workers[1].gpcs, 3);
  EXPECT_DOUBLE_EQ(s.achieved_qps, 2.0 / 0.004);
}

// The percentile pools the bucket selection must get exactly right: empty,
// one tick, all equal, two values, a span under one bucket per tick, a
// span near 2^62, the extremes of SimTime, and random pools of 1..5,000
// ticks.
std::vector<std::pair<std::string, std::vector<SimTime>>> PercentilePools() {
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  std::vector<std::pair<std::string, std::vector<SimTime>>> pools = {
      {"empty", {}},
      {"one", {MsToTicks(3.0)}},
      {"all equal", std::vector<SimTime>(999, 12345)},
      {"two values", {9, 5}},
      {"extremes", {kMax, 0, kMin, 0, kMax}},
  };
  std::mt19937_64 gen(23);
  std::vector<SimTime> two;
  for (int i = 0; i < 1001; ++i) two.push_back(gen() % 3 == 0 ? 7 : 4);
  pools.emplace_back("two values, many", std::move(two));
  std::vector<SimTime> narrow;
  for (int i = 0; i < 3000; ++i) {
    narrow.push_back(1000 + static_cast<SimTime>(gen() % 4095));
  }
  pools.emplace_back("span under 4096", std::move(narrow));
  std::vector<SimTime> wide = {0, SimTime{1} << 62};
  for (int i = 0; i < 3000; ++i) {
    wide.push_back(static_cast<SimTime>(gen() >> 2));
  }
  pools.emplace_back("span near 2^62", std::move(wide));
  for (const std::size_t n : {1u, 2u, 3u, 17u, 1000u, 4095u, 4097u, 5000u}) {
    std::vector<SimTime> pool;
    // Mostly one latency mode, plus a tail 50x wider.
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t scale = gen() % 20 == 0 ? 500'000'000 : 10'000'000;
      pool.push_back(static_cast<SimTime>(gen() % scale));
    }
    pools.emplace_back("random " + std::to_string(n), std::move(pool));
  }
  return pools;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(TickPercentileMs, MatchesTheSortingOracleBitForBit) {
  // Each pool whole, and cut into three pools (the first empty) that are
  // selected over at once.
  for (const auto& [label, pool] : PercentilePools()) {
    testing::Percentile oracle;
    for (const SimTime t : pool) oracle.Add(TicksToMs(t));
    const std::span<const SimTime> whole = pool;
    const std::size_t third = pool.size() / 3;
    const std::span<const SimTime> cut[] = {
        whole.first(0), whole.first(third), whole.subspan(third)};
    for (const double p : {0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9,
                           100.0}) {
      EXPECT_EQ(Bits(TickPercentileMs({&whole, 1}, p)),
                Bits(oracle.Value(p)))
          << label << " p" << p;
      EXPECT_EQ(Bits(TickPercentileMs(cut, p)), Bits(oracle.Value(p)))
          << label << " in three pools, p" << p;
    }
  }
}

TEST(StatsAccumulator, MultiModelPercentilesMatchTheOracleBitForBit) {
  // Each pool spread over three models (the aggregate selects over the
  // three pools at once) and in one model: arrival 0, start == finish.
  const SimTime sla = MsToTicks(5.0);
  for (const auto& [label, pool] : PercentilePools()) {
    for (const int models : {1, 3}) {
      std::vector<QueryRecord> records;
      for (const SimTime t : pool) {
        QueryRecord r = Rec(records.size(), 0, t, t);
        r.model = static_cast<int>(records.size() % models);
        records.push_back(r);
      }
      const ServerStats got = ComputeStats(records, sla, 0.0);
      const ServerStats want = testing::OracleStats(records, sla, 0);
      const std::string where = label + ", models " + std::to_string(models);
      testing::ExpectIdenticalServerStats(got, want, where);
      EXPECT_EQ(Bits(got.p50_latency_ms), Bits(want.p50_latency_ms)) << where;
      EXPECT_EQ(Bits(got.max_latency_ms), Bits(want.max_latency_ms)) << where;
      ASSERT_EQ(got.models.size(), want.models.size()) << where;
      for (std::size_t m = 0; m < got.models.size(); ++m) {
        EXPECT_EQ(Bits(got.models[m].p99_latency_ms),
                  Bits(want.models[m].p99_latency_ms))
            << where << " model " << m;
      }
    }
  }
}

}  // namespace
}  // namespace pe::sim
