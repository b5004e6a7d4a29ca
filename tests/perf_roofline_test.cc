#include "perf/roofline.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "perf/model_zoo.h"

namespace pe::perf {
namespace {

// The paper's five models, in its order.
std::vector<DnnModel> PaperModels() {
  return {BuildShuffleNetV2(), BuildMobileNetV1(), BuildResNet50(),
          BuildBertBase(), BuildConformer()};
}

// Per-layer timings, in layer order.
std::vector<LayerTiming> Breakdown(const RooflineEngine& engine,
                                   const DnnModel& m, int gpcs, int batch) {
  std::vector<LayerTiming> timings;
  for (const auto& layer : m.layers()) {
    timings.push_back(engine.TimeLayer(layer, gpcs, batch));
  }
  return timings;
}

class RooflineFixture : public ::testing::Test {
 protected:
  RooflineEngine engine_;
};

TEST_F(RooflineFixture, LatencyPositiveAndFinite) {
  const auto m = BuildResNet50();
  for (int g : {1, 2, 3, 4, 7}) {
    for (int b : {1, 8, 64}) {
      const double t = engine_.LatencySec(m, g, b);
      EXPECT_GT(t, 0.0);
      EXPECT_LT(t, 10.0);
    }
  }
}

TEST_F(RooflineFixture, LatencyMonotoneInBatch) {
  for (const auto& m : PaperModels()) {
    for (int g : {1, 3, 7}) {
      double prev = 0.0;
      for (int b = 1; b <= 64; b *= 2) {
        const double t = engine_.LatencySec(m, g, b);
        EXPECT_GT(t, prev) << m.name() << " gpcs=" << g << " b=" << b;
        prev = t;
      }
    }
  }
}

TEST_F(RooflineFixture, LatencyMonotoneInPartitionSize) {
  // Bigger partitions are never slower.
  for (const auto& m : PaperModels()) {
    for (int b : {1, 8, 32}) {
      double prev = 1e9;
      for (int g : {1, 2, 3, 4, 7}) {
        const double t = engine_.LatencySec(m, g, b);
        EXPECT_LE(t, prev * 1.0001) << m.name() << " gpcs=" << g << " b=" << b;
        prev = t;
      }
    }
  }
}

TEST_F(RooflineFixture, UtilizationInUnitInterval) {
  for (const auto& m : PaperModels()) {
    for (int g : {1, 2, 3, 4, 7}) {
      for (int b : {1, 4, 16, 64}) {
        const double u = engine_.Time(m, g, b).utilization;
        EXPECT_GE(u, 0.0) << m.name();
        EXPECT_LE(u, 1.0) << m.name();
      }
    }
  }
}

TEST_F(RooflineFixture, UtilizationRisesWithBatch) {
  for (const auto& m : PaperModels()) {
    for (int g : {1, 7}) {
      EXPECT_GT(engine_.Time(m, g, 64).utilization,
                engine_.Time(m, g, 1).utilization)
          << m.name() << " gpcs=" << g;
    }
  }
}

TEST_F(RooflineFixture, SmallPartitionsSaturateEarlier) {
  // Paper Figure 4(a): at a small-to-medium batch, GPU(1) utilization
  // exceeds GPU(7) utilization for every model.
  for (const auto& m : PaperModels()) {
    EXPECT_GT(engine_.Time(m, 1, 8).utilization,
              engine_.Time(m, 7, 8).utilization)
        << m.name();
  }
}

TEST_F(RooflineFixture, BertPunishedMostBySmallPartitions) {
  // Paper Figure 3: the latency blow-up from GPU(7) -> GPU(1) at batch 8 is
  // largest for BERT, smallest for the lightweight models.
  auto ratio = [&](const DnnModel& m) {
    return engine_.LatencySec(m, 1, 8) / engine_.LatencySec(m, 7, 8);
  };
  const double mobilenet = ratio(BuildMobileNetV1());
  const double resnet = ratio(BuildResNet50());
  const double bert = ratio(BuildBertBase());
  EXPECT_GT(bert, resnet);
  EXPECT_GT(resnet, mobilenet);
  EXPECT_GT(bert, 3.0);       // compute-bound: close to the 7x compute gap
  EXPECT_LT(mobilenet, 3.0);  // host/overhead compressed
}

TEST_F(RooflineFixture, GpuTimeExcludesHostCosts) {
  const auto m = BuildResNet50();
  const auto t = engine_.Time(m, 7, 8);
  const double host = RooflineParams{}.host_fixed_sec +
                      8 * RooflineParams{}.host_per_sample_sec;
  EXPECT_NEAR(t.latency_sec, t.gpu_sec + host, 1e-12);
}

TEST_F(RooflineFixture, BreakdownSumsToGpuTime) {
  const auto m = BuildMobileNetV1();
  const auto t = engine_.Time(m, 3, 4);
  const auto breakdown = Breakdown(engine_, m, 3, 4);
  ASSERT_EQ(breakdown.size(), m.layers().size());
  double sum = 0.0;
  for (const auto& lt : breakdown) sum += lt.seconds;
  EXPECT_NEAR(sum, t.gpu_sec, 1e-9);
}

TEST_F(RooflineFixture, DepthwiseLayersAreMemoryBound) {
  const auto m = BuildMobileNetV1();
  const auto breakdown = Breakdown(engine_, m, 7, 8);
  std::size_t i = 0;
  int dw_total = 0, dw_membound = 0;
  for (const auto& l : m.layers()) {
    if (l.kind == LayerKind::kDepthwiseConv) {
      ++dw_total;
      if (breakdown[i].memory_bound) ++dw_membound;
    }
    ++i;
  }
  EXPECT_GT(dw_total, 0);
  EXPECT_EQ(dw_membound, dw_total);
}

TEST_F(RooflineFixture, KernelOverheadFloorsTinyLayers) {
  Layer tiny = Elementwise("t", 8.0, 1.0, 4.0);
  const auto t = engine_.TimeLayer(tiny, 7, 1);
  EXPECT_GE(t.seconds, RooflineParams{}.kernel_overhead_sec);
}

TEST_F(RooflineFixture, WaveQuantizationVisibleOnLargePartition) {
  // A single-tile kernel on GPU(7) occupies 1/98 of the SMs.
  Layer one_tile = Linear("fc", 1, 128, 128, 4.0);
  const auto t = engine_.TimeLayer(one_tile, 7, 1);
  EXPECT_NEAR(t.occupancy, 1.0 / 98.0, 1e-9);
  const auto t1 = engine_.TimeLayer(one_tile, 1, 1);
  EXPECT_NEAR(t1.occupancy, 1.0 / 14.0, 1e-9);
}

TEST_F(RooflineFixture, EfficiencyTableCoversAllKinds) {
  RooflineParams p;
  for (LayerKind k :
       {LayerKind::kConv, LayerKind::kDepthwiseConv, LayerKind::kGemm,
        LayerKind::kAttention, LayerKind::kElementwise,
        LayerKind::kNormalization, LayerKind::kPool, LayerKind::kMemoryOp}) {
    EXPECT_GT(p.EfficiencyFor(k), 0.0);
    EXPECT_LE(p.EfficiencyFor(k), 1.0);
  }
}

// Property sweep over the whole (model x partition x batch) grid:
// throughput in samples/sec must not decrease when batch grows (batching
// never hurts throughput in this model), and utilization must be higher on
// GPU(1) than GPU(7) at equal batch.
class RooflineGridTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RooflineGridTest, BatchingNeverHurtsThroughput) {
  const auto [model_idx, gpcs] = GetParam();
  const auto m = PaperModels()[static_cast<std::size_t>(model_idx)];
  RooflineEngine engine;
  double prev_tput = 0.0;
  for (int b = 1; b <= 64; b *= 2) {
    const double tput = b / engine.LatencySec(m, gpcs, b);
    EXPECT_GE(tput, prev_tput * 0.999) << m.name() << " b=" << b;
    prev_tput = tput;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllPartitions, RooflineGridTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(1, 2, 3, 4, 7)));

}  // namespace
}  // namespace pe::perf
