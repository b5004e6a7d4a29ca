// PartitionPlan: what every partitioner returns -- a multiset of GPU
// partition sizes within a GPC budget, realizable on the physical cluster
// under MIG placement rules.  ParisPartitioner, HomogeneousPartitioner and
// RandomPartitioner each produce one from Plan(cluster, gpc_budget), using
// at most gpc_budget GPCs and throwing std::runtime_error when no feasible
// plan exists; PlanMixedParis produces one for a model mix.
#pragma once

#include <string>
#include <vector>

#include "hw/cluster.h"

namespace pe::partition {

// The outcome of a partitioning decision.
struct PartitionPlan {
  // Instance sizes (GPCs per instance), descending.
  std::vector<int> instance_gpcs;
  // Concrete placement on the physical cluster.
  hw::ClusterLayout layout;
  // Free-form rationale for logs/benches (e.g. PARIS's R_k ratios).
  std::string rationale;

  int TotalGpcs() const;
  int NumInstances() const { return static_cast<int>(instance_gpcs.size()); }
  std::string Summary() const;  // e.g. "6xGPU(1) 4xGPU(2) 2xGPU(3) 1xGPU(4)"
};

}  // namespace pe::partition
