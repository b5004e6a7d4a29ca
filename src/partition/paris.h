// PARIS: Partitioning Algorithm for Reconfigurable multi-GPU Inference
// Servers (paper Section IV-B, Algorithm 1).
//
// Inputs:
//   * the one-time profile table (utilization + effective throughput per
//     (partition size, batch size)),
//   * the batch size distribution PDF,
//   * the GPC budget of the multi-GPU server.
//
// Step A derives each partition size's MaxBatch_knee from the utilization
// curve.  The knees split the batch axis into contiguous segments, the n-th
// smallest segment assigned to the n-th smallest partition size (Figure 7).
// Step B computes the relative instance demand
//     R_k = sum_{b in segment_k} Dist(b) / Throughput(k, b)
// (expected service-time demand of the segment, cf. Figure 8).
// Step C scales the ratios to the absolute GPC budget:
//     C = budget / sum_k (GPC[k] * R_k),  N_k = C * R_k,
// then (implementation) rounds N_k to integer instance counts by largest
// fractional remainder under the GPC budget, backfills leftover GPCs with
// the highest-demand sizes that still fit, and packs the multiset onto the
// physical GPUs under MIG placement rules (with split-repair fallback).
#pragma once

#include <vector>

#include "partition/partitioner.h"
#include "profile/profile_table.h"
#include "workload/batch_dist.h"

namespace pe::partition {

struct ParisConfig {
  // MaxBatch_knee derivation (Algorithm 1 line 8 uses absolute 0.8; see
  // docs/PARIS.md for why relative-to-plateau is the default here).
  double knee_threshold = 0.8;
  profile::KneeMode knee_mode = profile::KneeMode::kRelative;
};

// Intermediate quantities of one PARIS run, exposed for tests, benches and
// the partition-explorer example.
struct ParisDerivation {
  std::vector<int> partition_sizes;  // ascending, from the profile table
  std::vector<int> knees;            // MaxBatch_knee per size
  std::vector<double> ratios;        // R_k per size
  std::vector<int> instances;        // rounded N_k per size
  double scale_c = 0.0;              // Algorithm 1's C
};

class ParisPartitioner {
 public:
  // `profile` and `dist` must outlive the partitioner.
  ParisPartitioner(const profile::ProfileTable& profile,
                   const workload::BatchDistribution& dist,
                   ParisConfig config = ParisConfig{});

  PartitionPlan Plan(const hw::Cluster& cluster, int gpc_budget);

  // Runs Algorithm 1 up to (and including) instance-count rounding for a
  // given budget, without packing.
  ParisDerivation Derive(int gpc_budget) const;

 private:
  const profile::ProfileTable& profile_;
  const workload::BatchDistribution& dist_;
  ParisConfig config_;
};

}  // namespace pe::partition
