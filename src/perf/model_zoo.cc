#include "perf/model_zoo.h"

#include <cassert>
#include <stdexcept>

#include "perf/layer.h"

namespace pe::perf {
namespace {

// The paper's stack is PyTorch 1.7.1 + CUDA 11.1 in FP32 eager mode.
constexpr double kDtype = 4.0;  // bytes per element

// Appends [BatchNorm, ReLU] as the separate elementwise kernels eager-mode
// PyTorch launches after a convolution over an HxWxC activation.
void AddBnRelu(std::vector<Layer>& layers, const std::string& prefix, int h,
               int w, int c) {
  const double elems = static_cast<double>(h) * w * c;
  layers.push_back(Elementwise(prefix + ".bn", elems, 2.0, kDtype));
  layers.push_back(Elementwise(prefix + ".relu", elems, 1.0, kDtype));
}

}  // namespace

// ---------------------------------------------------------------------------
// MobileNetV1 (224x224x3, width multiplier 1.0).
// 13 depthwise-separable blocks; each block in eager mode launches
// dw-conv, bn, relu, pw-conv, bn, relu.
// ---------------------------------------------------------------------------
DnnModel BuildMobileNetV1() {
  std::vector<Layer> layers;
  int h = 224, w = 224;

  layers.push_back(Conv2d("stem.conv", h, w, 3, 32, 3, 3, 2, kDtype));
  h = 112; w = 112;
  AddBnRelu(layers, "stem", h, w, 32);

  struct Block { int in_c, out_c, stride; };
  const Block blocks[] = {
      {32, 64, 1},    {64, 128, 2},   {128, 128, 1},  {128, 256, 2},
      {256, 256, 1},  {256, 512, 2},  {512, 512, 1},  {512, 512, 1},
      {512, 512, 1},  {512, 512, 1},  {512, 512, 1},  {512, 1024, 2},
      {1024, 1024, 1},
  };
  int idx = 0;
  for (const auto& b : blocks) {
    const std::string p = "block" + std::to_string(idx++);
    layers.push_back(
        DepthwiseConv2d(p + ".dw", h, w, b.in_c, 3, 3, b.stride, kDtype));
    h = (h + b.stride - 1) / b.stride;
    w = (w + b.stride - 1) / b.stride;
    AddBnRelu(layers, p + ".dw", h, w, b.in_c);
    layers.push_back(Conv2d(p + ".pw", h, w, b.in_c, b.out_c, 1, 1, 1, kDtype));
    AddBnRelu(layers, p + ".pw", h, w, b.out_c);
  }

  layers.push_back(Pool2d("head.avgpool", h, w, 1024, h, w, h, kDtype));
  layers.push_back(Linear("head.fc", 1, 1024, 1000, kDtype));
  return DnnModel("mobilenet", std::move(layers));
}

// ---------------------------------------------------------------------------
// ShuffleNetV2 1.0x (224x224x3): stage channels {116, 232, 464},
// stage repeats {4, 8, 4}; each basic unit runs pw/dw/pw on half the
// channels plus a channel shuffle; stage-entry units are strided with a
// second (downsample) branch.
// ---------------------------------------------------------------------------
DnnModel BuildShuffleNetV2() {
  std::vector<Layer> layers;
  int h = 224, w = 224;

  layers.push_back(Conv2d("stem.conv", h, w, 3, 24, 3, 3, 2, kDtype));
  h = 112; w = 112;
  AddBnRelu(layers, "stem", h, w, 24);
  layers.push_back(Pool2d("stem.maxpool", h, w, 24, 3, 3, 2, kDtype));
  h = 56; w = 56;

  struct Stage { int out_c, repeats; };
  const Stage stages[] = {{116, 4}, {232, 8}, {464, 4}};
  int in_c = 24;
  int stage_idx = 0;
  for (const auto& st : stages) {
    for (int u = 0; u < st.repeats; ++u) {
      const std::string p = "stage" + std::to_string(stage_idx) + ".unit" +
                            std::to_string(u);
      const bool down = (u == 0);
      const int branch_c = st.out_c / 2;
      if (down) {
        // Downsample branch: dw(stride2) + bn + pw + bn/relu.
        layers.push_back(DepthwiseConv2d(p + ".proj.dw", h, w, in_c, 3, 3, 2,
                                         kDtype));
        const int h2 = h / 2, w2 = w / 2;
        layers.push_back(Elementwise(p + ".proj.dw.bn",
                                     static_cast<double>(h2) * w2 * in_c, 2.0,
                                     kDtype));
        layers.push_back(
            Conv2d(p + ".proj.pw", h2, w2, in_c, branch_c, 1, 1, 1, kDtype));
        AddBnRelu(layers, p + ".proj.pw", h2, w2, branch_c);
        // Main branch at stride 2.
        layers.push_back(
            Conv2d(p + ".pw1", h, w, in_c, branch_c, 1, 1, 1, kDtype));
        AddBnRelu(layers, p + ".pw1", h, w, branch_c);
        layers.push_back(DepthwiseConv2d(p + ".dw", h, w, branch_c, 3, 3, 2,
                                         kDtype));
        h = h2; w = w2;
        layers.push_back(Elementwise(p + ".dw.bn",
                                     static_cast<double>(h) * w * branch_c,
                                     2.0, kDtype));
        layers.push_back(
            Conv2d(p + ".pw2", h, w, branch_c, branch_c, 1, 1, 1, kDtype));
        AddBnRelu(layers, p + ".pw2", h, w, branch_c);
      } else {
        // Basic unit: channel split, pw/dw/pw on half the channels.
        layers.push_back(
            Conv2d(p + ".pw1", h, w, branch_c, branch_c, 1, 1, 1, kDtype));
        AddBnRelu(layers, p + ".pw1", h, w, branch_c);
        layers.push_back(
            DepthwiseConv2d(p + ".dw", h, w, branch_c, 3, 3, 1, kDtype));
        layers.push_back(Elementwise(p + ".dw.bn",
                                     static_cast<double>(h) * w * branch_c,
                                     2.0, kDtype));
        layers.push_back(
            Conv2d(p + ".pw2", h, w, branch_c, branch_c, 1, 1, 1, kDtype));
        AddBnRelu(layers, p + ".pw2", h, w, branch_c);
      }
      // Concat + channel shuffle: pure data movement over the full tensor.
      layers.push_back(MemoryOp(p + ".shuffle",
                                static_cast<double>(h) * w * st.out_c * kDtype *
                                    2.0));
      in_c = st.out_c;
    }
    ++stage_idx;
  }

  layers.push_back(Conv2d("head.conv5", h, w, in_c, 1024, 1, 1, 1, kDtype));
  AddBnRelu(layers, "head.conv5", h, w, 1024);
  layers.push_back(Pool2d("head.avgpool", h, w, 1024, h, w, h, kDtype));
  layers.push_back(Linear("head.fc", 1, 1024, 1000, kDtype));
  return DnnModel("shufflenet", std::move(layers));
}

// ---------------------------------------------------------------------------
// ResNet-50 (224x224x3): stem + stages of {3, 4, 6, 3} bottleneck blocks
// (1x1 reduce, 3x3, 1x1 expand), eager-mode bn/relu/residual-add kernels.
// ---------------------------------------------------------------------------
DnnModel BuildResNet50() {
  std::vector<Layer> layers;
  int h = 224, w = 224;

  layers.push_back(Conv2d("stem.conv", h, w, 3, 64, 7, 7, 2, kDtype));
  h = 112; w = 112;
  AddBnRelu(layers, "stem", h, w, 64);
  layers.push_back(Pool2d("stem.maxpool", h, w, 64, 3, 3, 2, kDtype));
  h = 56; w = 56;

  struct Stage { int mid_c, out_c, blocks, stride; };
  const Stage stages[] = {
      {64, 256, 3, 1}, {128, 512, 4, 2}, {256, 1024, 6, 2}, {512, 2048, 3, 2}};
  int in_c = 64;
  int stage_idx = 0;
  for (const auto& st : stages) {
    for (int b = 0; b < st.blocks; ++b) {
      const std::string p = "stage" + std::to_string(stage_idx) + ".block" +
                            std::to_string(b);
      const int stride = (b == 0) ? st.stride : 1;
      layers.push_back(
          Conv2d(p + ".conv1", h, w, in_c, st.mid_c, 1, 1, 1, kDtype));
      AddBnRelu(layers, p + ".conv1", h, w, st.mid_c);
      layers.push_back(
          Conv2d(p + ".conv2", h, w, st.mid_c, st.mid_c, 3, 3, stride, kDtype));
      const int ho = (h + stride - 1) / stride;
      const int wo = (w + stride - 1) / stride;
      AddBnRelu(layers, p + ".conv2", ho, wo, st.mid_c);
      layers.push_back(
          Conv2d(p + ".conv3", ho, wo, st.mid_c, st.out_c, 1, 1, 1, kDtype));
      layers.push_back(Elementwise(p + ".conv3.bn",
                                   static_cast<double>(ho) * wo * st.out_c,
                                   2.0, kDtype));
      if (b == 0) {
        layers.push_back(Conv2d(p + ".downsample", h, w, in_c, st.out_c, 1, 1,
                                stride, kDtype));
        layers.push_back(Elementwise(p + ".downsample.bn",
                                     static_cast<double>(ho) * wo * st.out_c,
                                     2.0, kDtype));
      }
      layers.push_back(Elementwise(p + ".residual",
                                   static_cast<double>(ho) * wo * st.out_c,
                                   1.0, kDtype));
      layers.push_back(Elementwise(p + ".relu",
                                   static_cast<double>(ho) * wo * st.out_c,
                                   1.0, kDtype));
      h = ho; w = wo;
      in_c = st.out_c;
    }
    ++stage_idx;
  }

  layers.push_back(Pool2d("head.avgpool", h, w, 2048, h, w, h, kDtype));
  layers.push_back(Linear("head.fc", 1, 2048, 1000, kDtype));
  return DnnModel("resnet", std::move(layers));
}

// ---------------------------------------------------------------------------
// BERT-base (12 layers, hidden 768, 12 heads, FFN 3072).
// ---------------------------------------------------------------------------
DnnModel BuildBertBase(int seq_len) {
  assert(seq_len > 0);
  std::vector<Layer> layers;
  const int hidden = 768;
  const int heads = 12;
  const int d_head = hidden / heads;
  const int ffn = 3072;
  const double tok_elems = static_cast<double>(seq_len) * hidden;

  layers.push_back(
      MemoryOp("embed.lookup", tok_elems * kDtype * 2.0));
  layers.push_back(Normalization("embed.ln", tok_elems, 8.0, kDtype));

  for (int i = 0; i < 12; ++i) {
    const std::string p = "encoder" + std::to_string(i);
    layers.push_back(
        Linear(p + ".qkv", seq_len, hidden, 3 * hidden, kDtype));
    layers.push_back(
        AttentionScores(p + ".scores", seq_len, d_head, heads, kDtype));
    layers.push_back(Normalization(
        p + ".softmax", static_cast<double>(seq_len) * seq_len * heads, 5.0,
        kDtype));
    layers.push_back(
        AttentionContext(p + ".context", seq_len, d_head, heads, kDtype));
    layers.push_back(Linear(p + ".out", seq_len, hidden, hidden, kDtype));
    layers.push_back(Elementwise(p + ".residual1", tok_elems, 1.0, kDtype));
    layers.push_back(Normalization(p + ".ln1", tok_elems, 8.0, kDtype));
    layers.push_back(Linear(p + ".ffn1", seq_len, hidden, ffn, kDtype));
    layers.push_back(Elementwise(p + ".gelu",
                                 static_cast<double>(seq_len) * ffn, 8.0,
                                 kDtype));
    layers.push_back(Linear(p + ".ffn2", seq_len, ffn, hidden, kDtype));
    layers.push_back(Elementwise(p + ".residual2", tok_elems, 1.0, kDtype));
    layers.push_back(Normalization(p + ".ln2", tok_elems, 8.0, kDtype));
  }

  layers.push_back(Linear("pooler", 1, hidden, hidden, kDtype));
  return DnnModel("bert", std::move(layers));
}

// ---------------------------------------------------------------------------
// Conformer (L-sized encoder: 17 blocks, d_model 512, 8 heads, conv kernel
// 31, macaron FFN pairs with expansion 4) -- medium compute intensity per
// the paper: large aggregate FLOPs but interleaved with many memory-bound
// conv/norm/gating kernels.  Input: seq_len frames after conv subsampling.
// ---------------------------------------------------------------------------
DnnModel BuildConformer(int seq_len) {
  assert(seq_len > 0);
  std::vector<Layer> layers;
  const int d_model = 512;
  const int heads = 8;
  const int d_head = d_model / heads;
  const int ffn = 4 * d_model;
  const int conv_kernel = 31;
  const double tok_elems = static_cast<double>(seq_len) * d_model;

  // Conv subsampling stem (2x stride-2 convs over an 80-dim mel input,
  // viewed as 1-channel images of size (4*seq_len) x 80).
  layers.push_back(
      Conv2d("stem.conv1", 4 * seq_len, 80, 1, d_model, 3, 3, 2, kDtype));
  AddBnRelu(layers, "stem.conv1", 2 * seq_len, 40, d_model);
  layers.push_back(Conv2d("stem.conv2", 2 * seq_len, 40, d_model, d_model, 3,
                          3, 2, kDtype));
  AddBnRelu(layers, "stem.conv2", seq_len, 20, d_model);
  layers.push_back(Linear("stem.proj", seq_len, d_model * 20, d_model, kDtype));

  auto add_half_ffn = [&](const std::string& p) {
    layers.push_back(Normalization(p + ".ln", tok_elems, 8.0, kDtype));
    layers.push_back(Linear(p + ".w1", seq_len, d_model, ffn, kDtype));
    layers.push_back(Elementwise(p + ".swish",
                                 static_cast<double>(seq_len) * ffn, 4.0,
                                 kDtype));
    layers.push_back(Linear(p + ".w2", seq_len, ffn, d_model, kDtype));
    layers.push_back(Elementwise(p + ".scale_add", tok_elems, 2.0, kDtype));
  };

  for (int i = 0; i < 17; ++i) {
    const std::string p = "block" + std::to_string(i);
    add_half_ffn(p + ".ffn_a");
    // Multi-head self attention.
    layers.push_back(Normalization(p + ".mhsa.ln", tok_elems, 8.0, kDtype));
    layers.push_back(
        Linear(p + ".mhsa.qkv", seq_len, d_model, 3 * d_model, kDtype));
    layers.push_back(
        AttentionScores(p + ".mhsa.scores", seq_len, d_head, heads, kDtype));
    layers.push_back(Normalization(
        p + ".mhsa.softmax", static_cast<double>(seq_len) * seq_len * heads,
        5.0, kDtype));
    layers.push_back(
        AttentionContext(p + ".mhsa.context", seq_len, d_head, heads, kDtype));
    layers.push_back(Linear(p + ".mhsa.out", seq_len, d_model, d_model,
                            kDtype));
    layers.push_back(Elementwise(p + ".mhsa.residual", tok_elems, 1.0, kDtype));
    // Convolution module: pw-GLU, dw conv (kernel 31), bn, swish, pw.
    layers.push_back(Normalization(p + ".conv.ln", tok_elems, 8.0, kDtype));
    layers.push_back(
        Linear(p + ".conv.pw1", seq_len, d_model, 2 * d_model, kDtype));
    layers.push_back(Elementwise(p + ".conv.glu",
                                 2.0 * tok_elems, 2.0, kDtype));
    layers.push_back(DepthwiseConv2d(p + ".conv.dw", seq_len, 1, d_model,
                                     conv_kernel, 1, 1, kDtype));
    layers.push_back(Elementwise(p + ".conv.bn", tok_elems, 2.0, kDtype));
    layers.push_back(Elementwise(p + ".conv.swish", tok_elems, 4.0, kDtype));
    layers.push_back(
        Linear(p + ".conv.pw2", seq_len, d_model, d_model, kDtype));
    layers.push_back(Elementwise(p + ".conv.residual", tok_elems, 1.0,
                                 kDtype));
    add_half_ffn(p + ".ffn_b");
    layers.push_back(Normalization(p + ".final_ln", tok_elems, 8.0, kDtype));
  }

  layers.push_back(Linear("head.ctc", seq_len, d_model, 1024, kDtype));
  return DnnModel("conformer", std::move(layers));
}

DnnModel BuildModelByName(const std::string& name) {
  if (name == "shufflenet") return BuildShuffleNetV2();
  if (name == "mobilenet") return BuildMobileNetV1();
  if (name == "resnet") return BuildResNet50();
  if (name == "bert") return BuildBertBase();
  if (name == "conformer") return BuildConformer();
  throw std::invalid_argument("unknown model: " + name);
}

}  // namespace pe::perf
