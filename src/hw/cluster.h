// Multi-GPU cluster packing.
//
// The paper's server is an EC2 p4d.24xlarge: eight A100s, 56 GPCs total.
// PARIS (and the Random baseline) produce a *multiset* of partition sizes;
// this module decides whether that multiset can be realised across the
// physical GPUs under MIG placement rules, and produces the concrete
// per-GPU layouts.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hw/gpu_spec.h"
#include "hw/mig.h"

namespace pe::hw {

// A concrete assignment of instances to GPUs.
struct ClusterLayout {
  GpuSpec spec;
  // One entry per GPU: the multiset of instance sizes on it (descending).
  std::vector<std::vector<int>> per_gpu;

  // All instance sizes across the cluster, descending.
  std::vector<int> AllInstanceSizes() const;
  std::string ToString() const;
};

class Cluster {
 public:
  Cluster(int num_gpus, GpuSpec spec = GpuSpec{});

  int num_gpus() const { return num_gpus_; }
  const GpuSpec& spec() const { return spec_; }
  int total_gpcs() const { return num_gpus_ * spec_.gpcs; }

  // Attempts to pack the multiset of partition sizes into the cluster.
  // Returns the concrete layout, or nullopt if infeasible.  Deterministic:
  // first-fit-decreasing with backtracking across GPUs.
  std::optional<ClusterLayout> Pack(const std::vector<int>& sizes) const;

 private:
  int num_gpus_;
  GpuSpec spec_;
};

// Attempts to repair an unpackable multiset by repeatedly splitting its
// largest partition (7 -> 4+3, 4 -> 3+1, 3 -> 2+1, 2 -> 1+1) until it packs
// or only 1-GPC partitions remain.  Total GPCs are preserved.  Returns the
// packed layout, or nullopt if even all-1s cannot fit (i.e. total GPCs
// exceed cluster capacity).
std::optional<ClusterLayout> PackWithRepair(const Cluster& cluster,
                                            std::vector<int> sizes);

}  // namespace pe::hw
