// Roofline + occupancy performance model.
//
// Converts a (model, partition size, batch size) triple into latency and
// GPU utilization, replacing the paper's one-time hardware profiling run.
//
// Per layer, with partition resources (SMs, peak FLOP/s, DRAM bandwidth):
//
//   tiles  = ceil(M*b / tile_m) * ceil(N / tile_n) * groups
//   waves  = ceil(tiles / SMs)                (wave quantization)
//   t_comp = flops * waves / (tiles * sm_peak * eff(kind))
//   t_mem  = dram_bytes / bandwidth
//   t      = max(t_comp, t_mem) + kernel_overhead
//
// Utilization is the SM-busy fraction with nvidia-smi semantics (SMs count
// as busy while a kernel is resident, whether computing or stalled on
// memory; idle during launch gaps):
//   util(layer) = occupancy * resident_fraction
//               = (tiles / (waves * SMs)) * (max(t_comp, t_mem) / t)
// aggregated time-weighted across layers.  This produces the saturating
// utilization-vs-batch curves of the paper's Figure 4(a): small partitions
// saturate at small batch (small MaxBatch_knee), large partitions need
// large batches.
#pragma once

#include <vector>

#include "hw/gpu_spec.h"
#include "perf/model.h"

namespace pe::perf {

struct RooflineParams {
  // Thread-block tile footprint of GEMM-like kernels (cuBLAS-style 128x128).
  double tile_m = 128.0;
  double tile_n = 128.0;
  // Fixed per-kernel launch + scheduling overhead (PyTorch eager mode).
  double kernel_overhead_sec = 25e-6;
  // Host-side serving costs per query, independent of partition size:
  // query deserialization + tensor assembly (fixed) and per-sample
  // preprocessing + H2D staging over PCIe (linear in batch).  These are the
  // DeepRecInfra serving-path costs that compress the latency gap between
  // small and large partitions for cheap models (paper Fig. 4(b): ResNet
  // GPU(1) is ~3.8x GPU(7) at batch 32 despite 7x less compute) while
  // leaving compute-dominated models (BERT) ratio-bound by the GPU.
  double host_fixed_sec = 500e-6;
  double host_per_sample_sec = 150e-6;
  // Achievable fraction of per-SM peak in the compute-bound inner loop.
  double eff_conv = 0.55;
  double eff_dwconv = 0.10;
  double eff_gemm = 0.62;
  double eff_attention = 0.45;
  double eff_elementwise = 0.05;
  double eff_normalization = 0.06;
  double eff_pool = 0.06;
  double eff_memory = 0.04;

  double EfficiencyFor(LayerKind kind) const;
};

// Timing of one layer at one (partition, batch) point.
struct LayerTiming {
  double seconds = 0.0;       // total layer time incl. overhead
  double t_comp = 0.0;        // compute-roof time
  double t_mem = 0.0;         // memory-roof time
  double occupancy = 0.0;     // tiles / (waves * SMs), in (0, 1]
  double utilization = 0.0;   // SM-busy fraction for this layer
  bool memory_bound = false;  // t_mem > t_comp
};

// Aggregate timing of a whole model.
struct ModelTiming {
  double latency_sec = 0.0;       // end-to-end: host costs + GPU time
  double gpu_sec = 0.0;           // GPU-resident portion only
  double utilization = 0.0;       // time-weighted SM-busy fraction
  double compute_bound_frac = 0.0;  // fraction of time in compute-bound layers
  int partition_gpcs = 0;
  int batch = 0;
};

class RooflineEngine {
 public:
  explicit RooflineEngine(hw::GpuSpec spec = hw::GpuSpec{},
                          RooflineParams params = RooflineParams{});

  // Times one layer on a partition of `gpcs` compute slices at batch `b`.
  LayerTiming TimeLayer(const Layer& layer, int gpcs, int batch) const;

  // Times a whole model; also fills utilization.
  ModelTiming Time(const DnnModel& model, int gpcs, int batch) const;

  // Time(...).latency_sec.
  double LatencySec(const DnnModel& model, int gpcs, int batch) const;

 private:
  hw::GpuSpec spec_;
  RooflineParams params_;
};

}  // namespace pe::perf
