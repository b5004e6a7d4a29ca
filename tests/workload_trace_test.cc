#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "golden_digest.h"
#include "workload/scenario.h"

namespace pe::workload {
namespace {

QueryTrace MakeTrace(std::size_t n, double rate = 100.0,
                     std::uint64_t seed = 1) {
  ScenarioSpec spec;
  spec.rate.base_qps = rate;
  spec.components.push_back(ComponentSpec{});
  return GenerateScenarioTrace(spec, n, seed);
}

TEST(QueryTrace, GeneratesRequestedCount) {
  const auto trace = MakeTrace(500);
  EXPECT_EQ(trace.size(), 500u);
  EXPECT_FALSE(trace.empty());
}

TEST(QueryTrace, IdsAreDenseAndOrdered) {
  const auto trace = MakeTrace(200);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.queries()[i].id, i);
    if (i > 0) {
      EXPECT_GE(trace.queries()[i].arrival, trace.queries()[i - 1].arrival);
    }
  }
}

TEST(QueryTrace, OfferedQpsNearConfiguredRate) {
  const auto trace = MakeTrace(20000, 300.0);
  EXPECT_NEAR(trace.OfferedQps(), 300.0, 10.0);
}

TEST(QueryTrace, BatchesWithinDistributionRange) {
  const auto trace = MakeTrace(2000);
  double sum = 0.0;
  for (const auto& q : trace.queries()) {
    EXPECT_GE(q.batch, 1);
    EXPECT_LE(q.batch, 32);
    sum += q.batch;
  }
  EXPECT_GT(sum / static_cast<double>(trace.size()), 1.0);
}

TEST(QueryTrace, DeterministicForSameSeed) {
  const auto a = MakeTrace(100, 100.0, 42);
  const auto b = MakeTrace(100, 100.0, 42);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.queries()[i].arrival, b.queries()[i].arrival);
    EXPECT_EQ(a.queries()[i].batch, b.queries()[i].batch);
  }
}

TEST(QueryTrace, DifferentSeedsDiffer) {
  const auto a = MakeTrace(100, 100.0, 1);
  const auto b = MakeTrace(100, 100.0, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.queries()[i].arrival != b.queries()[i].arrival) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// The CSV export: a header, then one id,arrival_ns,batch row per query
// in arrival order.
TEST(QueryTrace, CsvWritesHeaderAndOneRowPerQuery) {
  const auto trace = MakeTrace(50);
  std::stringstream ss;
  trace.SaveCsv(ss);
  std::string line;
  ASSERT_TRUE(std::getline(ss, line));
  EXPECT_EQ(line, "id,arrival_ns,batch");
  for (const Query& q : trace.queries()) {
    ASSERT_TRUE(std::getline(ss, line));
    EXPECT_EQ(line, std::to_string(q.id) + "," + std::to_string(q.arrival) +
                        "," + std::to_string(q.batch));
  }
  EXPECT_FALSE(std::getline(ss, line));
}

TEST(QueryTrace, CsvWritesModelColumnForMultiModelTraces) {
  std::vector<Query> qs = {{0, 100, 2, 1}, {1, 200, 4, 0}, {2, 300, 8, 2}};
  const QueryTrace trace(std::move(qs));
  std::stringstream ss;
  trace.SaveCsv(ss);
  EXPECT_EQ(ss.str(),
            "id,arrival_ns,batch,model\n0,100,2,1\n1,200,4,0\n2,300,8,2\n");
}

TEST(QueryTrace, ConstructorSortsUnorderedQueries) {
  std::vector<Query> qs = {{0, 300, 1}, {1, 100, 2}, {2, 200, 4}};
  QueryTrace trace(std::move(qs));
  EXPECT_EQ(trace.queries()[0].arrival, 100);
  EXPECT_EQ(trace.queries()[2].arrival, 300);
}

TEST(DriftingTrace, PhasesChangeBatchStatistics) {
  LogNormalBatchDist small(2.0, 0.4, 32);
  LogNormalBatchDist large(20.0, 0.4, 32);
  const auto trace =
      GeneratePhasedTrace(200.0, {{&small, 2000}, {&large, 2000}}, 4000, 8);
  ASSERT_EQ(trace.size(), 4000u);
  double first = 0.0, second = 0.0;
  for (std::size_t i = 0; i < 2000; ++i) first += trace.queries()[i].batch;
  for (std::size_t i = 2000; i < 4000; ++i) {
    second += trace.queries()[i].batch;
  }
  EXPECT_LT(first / 2000, 4.0);
  EXPECT_GT(second / 2000, 14.0);
}

TEST(DriftingTrace, ArrivalsContinuousAcrossPhases) {
  const EmpiricalBatchDist a({1.0});
  const EmpiricalBatchDist b({0, 0, 0, 0, 0, 0, 0, 1.0});
  const auto trace = GeneratePhasedTrace(100.0, {{&a, 100}, {&b, 100}}, 200, 9);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace.queries()[i].arrival, trace.queries()[i - 1].arrival);
    EXPECT_EQ(trace.queries()[i].id, i);
  }
}

TEST(DriftingTrace, BadPhasesAndRatesRejected) {
  const EmpiricalBatchDist a({1.0});
  EXPECT_THROW(GeneratePhasedTrace(100.0, {{nullptr, 10}}, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(GeneratePhasedTrace(100.0, {}, 10, 1), std::invalid_argument);
  // The rate check keeps PoissonArrivals' message (the CLI's elastic day
  // cycle reports it).
  try {
    GeneratePhasedTrace(std::nan(""), {{&a, 10}}, 10, 1);
    ADD_FAILURE() << "a NaN rate was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "PoissonArrivals: rate must be a finite positive number"),
              std::string::npos)
        << e.what();
  }
}

// Pinned through the phased source this generator replaced: the CLI's
// default elastic day cycle (resnet's Table-I defaults, median 6 -> 18 ->
// 6 at 300 q/s, 12,000 queries, seed 1), and the small -> large -> small
// cycle at 350 q/s and seed 11: 600 queries per phase (the single-model
// elastic golden test) and 1,500 per phase (the shape the claims ledger's
// online ablation draws at its CTest size, there at seeds 1-3).
TEST(PhasedTrace, MatchesCheckedInDigests) {
  const LogNormalBatchDist base(6.0, 0.9, 32);
  const LogNormalBatchDist drifted(18.0, 0.9, 32);
  testing::ExpectDigest(
      testing::DigestTrace(GeneratePhasedTrace(
          300.0, {{&base, 4000}, {&drifted, 4000}, {&base, 4000}}, 12'000,
          1)),
      0x16863a4270e391b0, "CLI day cycle");

  const LogNormalBatchDist small(3.0, 0.6, 32);
  const LogNormalBatchDist large(18.0, 0.4, 32);
  const auto cycle = [&](std::size_t phase) {
    return testing::DigestTrace(GeneratePhasedTrace(
        350.0, {{&small, phase}, {&large, phase}, {&small, phase}}, 3 * phase,
        11));
  };
  testing::ExpectDigest(cycle(600), 0x2b185bd2f34bd6a1, "elastic golden");
  testing::ExpectDigest(cycle(1500), 0xc33303e7d45bffd6, "ablation smoke");
}

TEST(QueryTrace, EmptyTraceProperties) {
  QueryTrace trace;
  EXPECT_EQ(trace.Span(), 0);
  EXPECT_EQ(trace.OfferedQps(), 0.0);
}

}  // namespace
}  // namespace pe::workload
