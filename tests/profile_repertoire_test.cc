// Tests for the ModelRepertoire: registration, lookups, error paths,
// subsets, the shared ground-truth memo, and the model-zoo builder.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "perf/model_zoo.h"
#include "profile/model_repertoire.h"

namespace pe::profile {
namespace {

ProfileTable MakeTable(const std::string& name, double scale) {
  ProfileTable table(name, {1, 2}, {1, 2, 4});
  for (int g : {1, 2}) {
    for (int b : {1, 2, 4}) {
      ProfileEntry e;
      e.latency_sec = scale * b / g;
      e.utilization = 0.5;
      table.Set(g, b, e);
    }
  }
  return table;
}

TEST(ModelRepertoire, RegisterAndLookup) {
  ModelRepertoire rep;
  EXPECT_TRUE(rep.empty());
  const int a = rep.Register("alpha", MakeTable("alpha", 0.001),
                             [](int, int) { return 0.001; });
  const int b = rep.Register("beta", MakeTable("beta", 0.002),
                             [](int, int) { return 0.002; });
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(rep.size(), 2);
  EXPECT_EQ(rep.name(0), "alpha");
  EXPECT_EQ(rep.name(1), "beta");
  EXPECT_EQ(rep.IdOf("beta"), 1);
  EXPECT_EQ(rep.IdOf("gamma"), -1);
  EXPECT_TRUE(rep.Has(1));
  EXPECT_FALSE(rep.Has(2));
  EXPECT_FALSE(rep.Has(-1));
  EXPECT_DOUBLE_EQ(rep.EstimateSec(0, 2, 4), 0.001 * 4 / 2);
  EXPECT_DOUBLE_EQ(rep.EstimateSec(1, 1, 2), 0.002 * 2);
  EXPECT_DOUBLE_EQ(rep.ActualSec(1, 1, 1), 0.002);
  EXPECT_EQ(rep.max_batch(), 4);
}

TEST(ModelRepertoire, RejectsDuplicatesAndBadLookups) {
  ModelRepertoire rep;
  rep.Register("alpha", MakeTable("alpha", 0.001),
               [](int, int) { return 0.001; });
  EXPECT_THROW(rep.Register("alpha", MakeTable("alpha", 0.001),
                            [](int, int) { return 0.001; }),
               std::invalid_argument);
  EXPECT_THROW(rep.Register("null", MakeTable("null", 0.001), LatencyFn{}),
               std::invalid_argument);
  EXPECT_THROW(rep.profile(1), std::out_of_range);
  EXPECT_THROW(rep.name(-1), std::out_of_range);
  EXPECT_THROW(rep.EstimateSec(7, 1, 1), std::out_of_range);
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double Truth(int gpcs, int batch) {
  return 1e-3 * (0.5 + 0.4 * batch) / static_cast<double>(gpcs);
}

// A LatencyFn computing Truth that counts its calls.
LatencyFn Counting(std::shared_ptr<std::atomic<int>> calls) {
  return [calls = std::move(calls)](int gpcs, int batch) {
    calls->fetch_add(1, std::memory_order_relaxed);
    return Truth(gpcs, batch);
  };
}

TEST(ModelRepertoire, SubsetSharesEntriesAndTheirMemo) {
  const auto calls = std::make_shared<std::atomic<int>>(0);
  ModelRepertoire zoo;
  zoo.Register("alpha", MakeTable("alpha", 0.001), Counting(calls));
  zoo.Register("beta", MakeTable("beta", 0.002), Counting(calls));
  zoo.Register("gamma", MakeTable("gamma", 0.003), Counting(calls));
  const ModelRepertoire sub = zoo.Subset({2, 0});
  ASSERT_EQ(sub.size(), 2);
  EXPECT_EQ(sub.name(0), "gamma");
  EXPECT_EQ(sub.name(1), "alpha");
  EXPECT_EQ(sub.IdOf("beta"), -1);
  EXPECT_EQ(sub.max_batch(), 4);
  EXPECT_EQ(sub.EstimateSec(0, 2, 4), zoo.EstimateSec(2, 2, 4));
  // One evaluation serves the subset and the zoo alike.
  EXPECT_EQ(Bits(sub.ActualSec(0, 1, 2)), Bits(Truth(1, 2)));
  EXPECT_EQ(Bits(zoo.ActualSec(2, 1, 2)), Bits(Truth(1, 2)));
  EXPECT_EQ(calls->load(), 1);
  // ...but each model has its own grid.
  EXPECT_EQ(Bits(zoo.ActualSec(0, 1, 2)), Bits(Truth(1, 2)));
  EXPECT_EQ(calls->load(), 2);
  EXPECT_EQ(Bits(sub.ActualSec(1, 1, 2)), Bits(Truth(1, 2)));
  EXPECT_EQ(calls->load(), 2);
  EXPECT_THROW((void)zoo.Subset({0, 0}), std::invalid_argument);
  EXPECT_THROW((void)zoo.Subset({3}), std::out_of_range);
  EXPECT_TRUE(zoo.Subset({}).empty());
}

TEST(ModelRepertoire, MemoFillsFromManyThreads) {
  // Pool threads race to fill one grid (gpcs 0..2 x batch 0..4; gpcs 0
  // stays off it to keep the values finite).  Every answer must be
  // bit-equal to the LatencyFn's, whichever thread filled the cell.
  const auto calls = std::make_shared<std::atomic<int>>(0);
  ModelRepertoire rep;
  rep.Register("alpha", MakeTable("alpha", 0.001), Counting(calls));
  const std::vector<int> ok = ParallelMap(8, 4, [&](std::size_t t) {
    int matches = 0;
    for (int round = 0; round < 50; ++round) {
      for (int g = 1; g <= 2; ++g) {
        for (int b = 0; b <= 4; ++b) {
          // Threads walk the grid from different corners.
          const int gg = t % 2 == 0 ? g : 3 - g;
          matches += Bits(rep.ActualSec(0, gg, b)) == Bits(Truth(gg, b));
        }
      }
    }
    return matches;
  });
  for (const int matches : ok) EXPECT_EQ(matches, 50 * 10);
  // A race may evaluate a cell more than once, but at most once per
  // thread; once filled, the memo serves every cell.
  const int filled = calls->load();
  EXPECT_GE(filled, 10);
  EXPECT_LE(filled, 10 * 8);
  for (int g = 1; g <= 2; ++g) {
    for (int b = 0; b <= 4; ++b) (void)rep.ActualSec(0, g, b);
  }
  EXPECT_EQ(calls->load(), filled);
}

TEST(ModelRepertoire, ZooBuilderProfilesEachModel) {
  const auto rep =
      BuildZooRepertoire({"shufflenet", "mobilenet"}, perf::RooflineEngine{},
                         /*max_batch=*/32);
  ASSERT_EQ(rep.size(), 2);
  EXPECT_EQ(rep.IdOf("shufflenet"), 0);
  EXPECT_EQ(rep.IdOf("mobilenet"), 1);
  // Profiled at least to batch 64 so knee detection sees the plateau.
  EXPECT_GE(rep.max_batch(), 64);
  for (int m = 0; m < rep.size(); ++m) {
    // Estimates come from the profiled grid of the model's own table, and
    // ground truth from the bound roofline engine: they agree on grid
    // points by construction.
    EXPECT_NEAR(rep.EstimateSec(m, 7, 8), rep.ActualSec(m, 7, 8), 1e-12);
    // More compute never hurts.
    EXPECT_LE(rep.EstimateSec(m, 7, 8), rep.EstimateSec(m, 1, 8));
  }
  // Distinct models, distinct tables.
  EXPECT_NE(rep.EstimateSec(0, 7, 8), rep.EstimateSec(1, 7, 8));
}

}  // namespace
}  // namespace pe::profile
