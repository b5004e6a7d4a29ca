#include "perf/model_zoo.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace pe::perf {
namespace {

// The paper's five models, in its order.
std::vector<DnnModel> PaperModels() {
  return {BuildShuffleNetV2(), BuildMobileNetV1(), BuildResNet50(),
          BuildBertBase(), BuildConformer()};
}

// Per-sample totals over a model's layers.
double FlopsPerSample(const DnnModel& m) {
  double total = 0.0;
  for (const auto& l : m.layers()) total += l.flops_per_sample;
  return total;
}

double WeightBytes(const DnnModel& m) {
  double total = 0.0;
  for (const auto& l : m.layers()) total += l.weight_bytes;
  return total;
}

double IoBytesPerSample(const DnnModel& m) {
  double total = 0.0;
  for (const auto& l : m.layers()) total += l.io_bytes_per_sample;
  return total;
}

// Arithmetic intensity at batch b: flops / dram bytes.
double ArithmeticIntensity(const DnnModel& m, int batch) {
  const double b = static_cast<double>(batch);
  return FlopsPerSample(m) * b / (WeightBytes(m) + IoBytesPerSample(m) * b);
}

// The compute-intensity class the paper assigns each model (Section V).
enum class Intensity { kLow, kMedium, kHigh };

Intensity PaperClass(const std::string& name) {
  if (name == "shufflenet" || name == "mobilenet") return Intensity::kLow;
  if (name == "resnet" || name == "conformer") return Intensity::kMedium;
  return Intensity::kHigh;  // bert
}

TEST(ModelZoo, LookupByNameBuildsEveryPaperModel) {
  for (const char* name :
       {"shufflenet", "mobilenet", "resnet", "bert", "conformer"}) {
    EXPECT_EQ(BuildModelByName(name).name(), name);
  }
  EXPECT_THROW(BuildModelByName("vgg"), std::invalid_argument);
}

TEST(ModelZoo, IntensityClassesMatchPaper) {
  // A model of a higher class has the higher arithmetic intensity.
  for (const auto& lo : PaperModels()) {
    for (const auto& hi : PaperModels()) {
      if (PaperClass(lo.name()) >= PaperClass(hi.name())) continue;
      EXPECT_LT(ArithmeticIntensity(lo, 8), ArithmeticIntensity(hi, 8))
          << lo.name() << " vs " << hi.name();
    }
  }
}

TEST(ModelZoo, FlopsOrderingMatchesIntensityNarrative) {
  // ShuffleNet < MobileNet < ResNet; BERT is the heaviest.
  const double shuffle = FlopsPerSample(BuildShuffleNetV2());
  const double mobile = FlopsPerSample(BuildMobileNetV1());
  const double resnet = FlopsPerSample(BuildResNet50());
  const double bert = FlopsPerSample(BuildBertBase());
  EXPECT_LT(shuffle, mobile);
  EXPECT_LT(mobile, resnet);
  EXPECT_LT(resnet, bert);
}

TEST(ModelZoo, MobileNetFlopsInKnownRange) {
  // MobileNetV1 is ~1.1 GFLOPs (2x 0.57 GMACs) for 224x224.
  const double f = FlopsPerSample(BuildMobileNetV1());
  EXPECT_GT(f, 0.9e9);
  EXPECT_LT(f, 1.6e9);
}

TEST(ModelZoo, ResNet50FlopsInKnownRange) {
  // ResNet-50 is ~8.2 GFLOPs (2x 4.1 GMACs).
  const double f = FlopsPerSample(BuildResNet50());
  EXPECT_GT(f, 7.0e9);
  EXPECT_LT(f, 10.0e9);
}

TEST(ModelZoo, ShuffleNetFlopsInKnownRange) {
  // ShuffleNetV2 1.0x is ~0.3 GFLOPs of conv work; with head conv5 and
  // eager-mode extras it stays well under a GFLOP.
  const double f = FlopsPerSample(BuildShuffleNetV2());
  EXPECT_GT(f, 0.2e9);
  EXPECT_LT(f, 1.0e9);
}

TEST(ModelZoo, BertParamsInKnownRange) {
  // BERT-base encoder weights ~85M params x 4 bytes (embeddings are a
  // lookup, not dense weights here).
  const double w = WeightBytes(BuildBertBase());
  EXPECT_GT(w, 70e6 * 4);
  EXPECT_LT(w, 110e6 * 4);
}

TEST(ModelZoo, BertFlopsScaleWithSeqLen) {
  const double f128 = FlopsPerSample(BuildBertBase(128));
  const double f384 = FlopsPerSample(BuildBertBase(384));
  EXPECT_GT(f384, 2.9 * f128);  // superlinear: attention term is quadratic
}

TEST(ModelZoo, ResNetLayerCountReflectsEagerMode) {
  // 53 convs + bn/relu/residual kernels: well over 100 launches.
  const auto m = BuildResNet50();
  EXPECT_GT(m.layers().size(), 120u);
  EXPECT_LT(m.layers().size(), 260u);
}

TEST(ModelZoo, MobileNetHasDepthwiseLayers) {
  const auto m = BuildMobileNetV1();
  int dw = 0;
  for (const auto& l : m.layers()) {
    if (l.kind == LayerKind::kDepthwiseConv) ++dw;
  }
  EXPECT_EQ(dw, 13);
}

TEST(ModelZoo, ConformerHasMacaronStructure) {
  const auto m = BuildConformer();
  int attention = 0, dwconv = 0;
  for (const auto& l : m.layers()) {
    if (l.kind == LayerKind::kAttention) ++attention;
    if (l.kind == LayerKind::kDepthwiseConv) ++dwconv;
  }
  EXPECT_EQ(attention, 2 * 17);  // scores + context per block
  EXPECT_EQ(dwconv, 17);
}

TEST(ModelZoo, AllLayersHaveNonNegativeCosts) {
  for (const auto& m : PaperModels()) {
    for (const auto& l : m.layers()) {
      EXPECT_GE(l.flops_per_sample, 0.0) << m.name() << ":" << l.name;
      EXPECT_GE(l.weight_bytes, 0.0) << m.name() << ":" << l.name;
      EXPECT_GT(l.io_bytes_per_sample, 0.0) << m.name() << ":" << l.name;
      EXPECT_GE(l.gemm_m_per_sample, 0.0) << m.name() << ":" << l.name;
      EXPECT_GE(l.gemm_n, 1.0) << m.name() << ":" << l.name;
      EXPECT_GE(l.groups, 1) << m.name() << ":" << l.name;
    }
  }
}

TEST(ModelZoo, ArithmeticIntensityGrowsWithBatch) {
  // Weights amortize across the batch, so flops/byte must be
  // non-decreasing in batch size.
  for (const auto& m : PaperModels()) {
    EXPECT_GT(ArithmeticIntensity(m, 32), ArithmeticIntensity(m, 1))
        << m.name();
  }
}

TEST(ModelZoo, BertIntensityHighest) {
  const auto models = PaperModels();
  const double bert = ArithmeticIntensity(models[3], 8);
  for (const auto& m : models) {
    if (m.name() == "bert") continue;
    EXPECT_GT(bert, ArithmeticIntensity(m, 8)) << m.name();
  }
}

}  // namespace
}  // namespace pe::perf
