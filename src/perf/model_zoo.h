// The five benchmark DNNs from the paper (Section V):
//   computer vision:  ShuffleNetV2-1.0x, MobileNetV1-1.0, ResNet-50
//   NLP:              BERT-base
//   speech:           Conformer (medium)
//
// Each builder produces a layer-accurate eager-mode graph: convolutions,
// matmuls, and the separate BN / activation / residual / norm kernels that
// a PyTorch 1.7 eager execution would launch (the paper's software stack).
// Those small memory-bound kernels are what make lightweight models unable
// to utilize large GPU partitions -- the effect the paper's Figures 3-4
// characterize -- so they are modeled explicitly rather than fused away.
#pragma once

#include <string>

#include "perf/model.h"

namespace pe::perf {

// Each builder's trailing comment gives the paper's compute-intensity class.
DnnModel BuildShuffleNetV2();           // low intensity
DnnModel BuildMobileNetV1();            // low intensity
DnnModel BuildResNet50();               // medium intensity
DnnModel BuildBertBase(int seq_len = 384);   // high intensity (MLPerf seq len)
DnnModel BuildConformer(int seq_len = 250);  // medium intensity

// Looks a paper model up by name ("shufflenet", "mobilenet", "resnet",
// "bert", "conformer"); throws std::invalid_argument on unknown names.
DnnModel BuildModelByName(const std::string& name);

}  // namespace pe::perf
