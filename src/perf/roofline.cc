#include "perf/roofline.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pe::perf {

double RooflineParams::EfficiencyFor(LayerKind kind) const {
  switch (kind) {
    case LayerKind::kConv: return eff_conv;
    case LayerKind::kDepthwiseConv: return eff_dwconv;
    case LayerKind::kGemm: return eff_gemm;
    case LayerKind::kAttention: return eff_attention;
    case LayerKind::kElementwise: return eff_elementwise;
    case LayerKind::kNormalization: return eff_normalization;
    case LayerKind::kPool: return eff_pool;
    case LayerKind::kMemoryOp: return eff_memory;
  }
  return eff_gemm;
}

RooflineEngine::RooflineEngine(hw::GpuSpec spec, RooflineParams params)
    : spec_(std::move(spec)), params_(params) {}

LayerTiming RooflineEngine::TimeLayer(const Layer& layer, int gpcs,
                                      int batch) const {
  assert(batch >= 1);
  const hw::PartitionResources res = spec_.Partition(gpcs);
  const double b = static_cast<double>(batch);

  const double tiles_m =
      std::max(1.0, std::ceil(layer.gemm_m_per_sample * b / params_.tile_m));
  const double tiles_n =
      std::max(1.0, std::ceil(layer.gemm_n / params_.tile_n));
  const double tiles = tiles_m * tiles_n * static_cast<double>(layer.groups);
  const double sms = static_cast<double>(res.sms);
  const double waves = std::ceil(tiles / sms);

  const double flops = layer.flops_per_sample * b;
  const double eff = params_.EfficiencyFor(layer.kind);
  const double sm_peak = spec_.peak_flops_per_sm;

  LayerTiming t;
  // Compute roof with wave quantization: every wave takes as long as one
  // full tile even if partially filled.
  t.t_comp = flops > 0.0
                 ? (flops / tiles) * waves / (sm_peak * eff)
                 : 0.0;
  const double bytes = layer.weight_bytes + layer.io_bytes_per_sample * b;
  t.t_mem = bytes > 0.0 ? bytes / res.dram_bw : 0.0;
  t.memory_bound = t.t_mem > t.t_comp;
  const double roof = std::max(t.t_comp, t.t_mem);
  t.seconds = roof + params_.kernel_overhead_sec;
  t.occupancy = tiles / (waves * sms);
  // SM-busy fraction (nvidia-smi semantics): SMs count as busy while the
  // kernel is resident -- whether crunching or stalled on memory -- and idle
  // during launch gaps; scaled by how many SMs the kernel actually covers.
  const double resident_fraction = t.seconds > 0.0 ? roof / t.seconds : 0.0;
  t.utilization = t.occupancy * std::min(1.0, resident_fraction);
  return t;
}

ModelTiming RooflineEngine::Time(const DnnModel& model, int gpcs,
                                 int batch) const {
  ModelTiming mt;
  mt.partition_gpcs = gpcs;
  mt.batch = batch;
  double busy_weighted = 0.0;
  double compute_bound_time = 0.0;
  for (const auto& layer : model.layers()) {
    const LayerTiming lt = TimeLayer(layer, gpcs, batch);
    mt.gpu_sec += lt.seconds;
    busy_weighted += lt.utilization * lt.seconds;
    if (!lt.memory_bound) compute_bound_time += lt.seconds;
  }
  // Host serving path (fixed + per-sample), GPU idle throughout.
  const double host = params_.host_fixed_sec +
                      params_.host_per_sample_sec * static_cast<double>(batch);
  mt.latency_sec = mt.gpu_sec + host;
  if (mt.latency_sec > 0.0) {
    mt.utilization = busy_weighted / mt.latency_sec;
    mt.compute_bound_frac = compute_bound_time / mt.latency_sec;
  }
  return mt;
}

double RooflineEngine::LatencySec(const DnnModel& model, int gpcs,
                                  int batch) const {
  return Time(model, gpcs, batch).latency_sec;
}

}  // namespace pe::perf
