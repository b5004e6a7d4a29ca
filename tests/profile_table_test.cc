#include "profile/profile_table.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "perf/model_zoo.h"
#include "perf/roofline.h"
#include "profile/profiler.h"
#include "profile_oracle.h"

namespace pe::profile {
namespace {

struct Cell {
  int gpcs;
  int batch;
  ProfileEntry entry;
};

// A hand-built table: `sizes` x `batches` with `cells` filled.
ProfileTable Build(std::vector<int> sizes, std::vector<int> batches,
                   const std::vector<Cell>& cells) {
  ProfileTable t("toy", std::move(sizes), std::move(batches));
  for (const Cell& c : cells) t.Set(c.gpcs, c.batch, c.entry);
  return t;
}

const std::vector<Cell> kTinyCells = {
    {1, 1, {0.010, 0.50}},
    {1, 2, {0.020, 0.85}},
    {1, 4, {0.040, 0.95}},
    {7, 1, {0.005, 0.10}},
    {7, 2, {0.006, 0.30}},
    {7, 4, {0.008, 0.85}},
};

// Two partition sizes, batches {1, 2, 4}.
ProfileTable TinyTable() { return Build({1, 7}, {1, 2, 4}, kTinyCells); }

TEST(ProfileTable, ExactLookup) {
  const auto t = TinyTable();
  EXPECT_DOUBLE_EQ(t.At(1, 2).latency_sec, 0.020);
  EXPECT_DOUBLE_EQ(t.At(7, 4).utilization, 0.85);
  EXPECT_THROW(t.At(3, 1), std::out_of_range);
  EXPECT_THROW(t.At(1, 3), std::out_of_range);
}

TEST(ProfileTable, ThroughputIsInverseLatency) {
  const auto t = TinyTable();
  // Figure 8 semantics: a query is one batch.
  EXPECT_DOUBLE_EQ(t.At(1, 1).throughput_qps(), 100.0);
  EXPECT_DOUBLE_EQ(t.At(1, 2).throughput_qps(), 50.0);
}

TEST(ProfileTable, LatencySnapsUpToNextGridPoint) {
  const auto t = TinyTable();
  EXPECT_DOUBLE_EQ(t.LatencySec(1, 3), 0.040);  // snaps to batch 4
  EXPECT_DOUBLE_EQ(t.LatencySec(1, 4), 0.040);
  EXPECT_DOUBLE_EQ(t.LatencySec(1, 99), 0.040);  // clamps to max batch
}

TEST(ProfileTable, AbsoluteKnee) {
  const auto t = TinyTable();
  EXPECT_EQ(t.MaxBatchKnee(1, 0.8, KneeMode::kAbsolute), 2);
  EXPECT_EQ(t.MaxBatchKnee(7, 0.8, KneeMode::kAbsolute), 4);
}

// Utilization never crosses 0.8.
const std::vector<Cell> kNeverCrossesCells = {
    {1, 1, {0.01, 0.10}},
    {1, 2, {0.02, 0.20}},
};

TEST(ProfileTable, AbsoluteKneeFallsBackToMaxBatch) {
  const auto t = Build({1}, {1, 2}, kNeverCrossesCells);
  EXPECT_EQ(t.MaxBatchKnee(1, 0.8, KneeMode::kAbsolute), 2);
}

const std::vector<Cell> kPlateauCells = {
    {1, 1, {0.01, 0.30}},
    {1, 2, {0.02, 0.45}},  // >= 0.8 * 0.50
    {1, 4, {0.04, 0.50}},
};

TEST(ProfileTable, RelativeKneeUsesPlateau) {
  const auto t = Build({1}, {1, 2, 4}, kPlateauCells);
  EXPECT_EQ(t.MaxBatchKnee(1, 0.8, KneeMode::kRelative), 2);
}

TEST(ProfileTable, AllKneesMonotoneAndLastClamped) {
  const auto t = TinyTable();
  const auto knees = t.AllKnees(0.8, KneeMode::kAbsolute);
  ASSERT_EQ(knees.size(), 2u);
  EXPECT_LE(knees[0], knees[1]);
  EXPECT_EQ(knees.back(), 4);  // last partition covers the max batch
}

// A pathological table where the larger partition saturates earlier.
const std::vector<Cell> kPathologicalCells = {
    {1, 1, {0.01, 0.10}},
    {1, 2, {0.02, 0.50}},
    {1, 4, {0.04, 0.90}},
    {7, 1, {0.005, 0.95}},
    {7, 2, {0.006, 0.95}},
    {7, 4, {0.008, 0.95}},
};

TEST(ProfileTable, AllKneesEnforceMonotonicity) {
  // AllKnees must still return a non-decreasing sequence.
  const auto t = Build({1, 7}, {1, 2, 4}, kPathologicalCells);
  const auto knees = t.AllKnees(0.8, KneeMode::kAbsolute);
  EXPECT_LE(knees[0], knees[1]);
}

TEST(ProfileTable, HandBuiltTablesMatchTheOracle) {
  const struct {
    std::vector<int> sizes;
    std::vector<int> batches;
    const std::vector<Cell>& cells;
  } tables[] = {
      {{1, 7}, {1, 2, 4}, kTinyCells},
      {{1}, {1, 2}, kNeverCrossesCells},
      {{1}, {1, 2, 4}, kPlateauCells},
      {{1, 7}, {1, 2, 4}, kPathologicalCells},
  };
  for (const auto& spec : tables) {
    const ProfileTable t = Build(spec.sizes, spec.batches, spec.cells);
    testing::ProfileOracle oracle(spec.batches);
    for (const Cell& c : spec.cells) oracle.Set(c.gpcs, c.batch, c.entry);
    testing::ExpectTableMatchesOracle(t, oracle, 8, -1, 12);
  }
}

TEST(ProfileTable, SaveCsvWalksGpcsThenBatch) {
  // Cells are Set out of order, and (7, 2) is a hole.
  ProfileTable t("toy", {1, 7}, {1, 2});
  t.Set(7, 1, {0.5, 0.25});
  t.Set(1, 2, {0.25, 0.75});
  t.Set(1, 1, {0.125, 0.5});
  std::ostringstream csv;
  t.SaveCsv(csv);
  EXPECT_EQ(csv.str(),
            "model,gpcs,batch,latency_sec,utilization\n"
            "toy,1,1,0.125,0.5\n"
            "toy,1,2,0.25,0.75\n"
            "toy,7,1,0.5,0.25\n");
}

TEST(ProfileTable, RejectsGridsTheArrayCannotIndex) {
  EXPECT_THROW(ProfileTable("t", {7, 1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(ProfileTable("t", {1, 1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(ProfileTable("t", {0, 1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(ProfileTable("t", {1}, {2, 1}), std::invalid_argument);
  EXPECT_THROW(ProfileTable("t", {1}, {2, 2}), std::invalid_argument);
  EXPECT_THROW(ProfileTable("t", {1}, {-1, 2}), std::invalid_argument);
  // An empty grid is allowed; every lookup on it throws.
  const ProfileTable empty("t", {}, {});
  EXPECT_FALSE(empty.Has(1, 1));
  EXPECT_THROW(empty.LatencySec(1, 1), std::out_of_range);
}

TEST(ProfileTable, SetRejectsCellsOffTheGrid) {
  ProfileTable t("t", {1, 7}, {2, 4});
  EXPECT_THROW(t.Set(3, 2, {1e-3, 0.5}), std::out_of_range);  // size
  EXPECT_THROW(t.Set(8, 2, {1e-3, 0.5}), std::out_of_range);
  EXPECT_THROW(t.Set(-1, 2, {1e-3, 0.5}), std::out_of_range);
  EXPECT_THROW(t.Set(1, 3, {1e-3, 0.5}), std::out_of_range);  // batch
  EXPECT_THROW(t.Set(1, 5, {1e-3, 0.5}), std::out_of_range);
  EXPECT_THROW(t.Set(1, 0, {1e-3, 0.5}), std::out_of_range);
  EXPECT_FALSE(t.Has(1, 3));
  t.Set(7, 4, {1e-3, 0.5});
  EXPECT_TRUE(t.Has(7, 4));
}

TEST(Profiler, DefaultConfigCoversPaperGrid) {
  const auto c = ProfilerConfig::Default(64);
  EXPECT_EQ(c.partition_sizes, (std::vector<int>{1, 2, 3, 4, 7}));
  EXPECT_EQ(c.batch_sizes.front(), 1);
  EXPECT_EQ(c.batch_sizes.back(), 64);
  // Single-batch resolution where knees live.
  for (int b = 1; b <= 8; ++b) {
    EXPECT_NE(std::find(c.batch_sizes.begin(), c.batch_sizes.end(), b),
              c.batch_sizes.end());
  }
}

TEST(Profiler, ProfilesFullGrid) {
  Profiler profiler;
  const auto model = perf::BuildMobileNetV1();
  const auto table = profiler.Profile(model, ProfilerConfig::Default(16));
  EXPECT_EQ(table.model_name(), "mobilenet");
  for (int g : {1, 2, 3, 4, 7}) {
    for (int b : table.batch_sizes()) {
      EXPECT_TRUE(table.Has(g, b));
      EXPECT_GT(table.At(g, b).latency_sec, 0.0);
    }
  }
}

TEST(Profiler, TableMatchesEngineDirectly) {
  Profiler profiler;
  const auto model = perf::BuildResNet50();
  const auto table = profiler.Profile(model, ProfilerConfig::Default(8));
  const perf::RooflineEngine engine;
  EXPECT_DOUBLE_EQ(table.At(3, 4).latency_sec, engine.LatencySec(model, 3, 4));
  EXPECT_DOUBLE_EQ(table.At(3, 4).utilization,
                   engine.Time(model, 3, 4).utilization);
}

}  // namespace
}  // namespace pe::profile
