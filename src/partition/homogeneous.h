// Homogeneous partitioning: the paper's baseline GPU(N) designs --
// as many instances of a single partition size as the GPC budget and MIG
// placement rules allow (Section V, Table I).
#pragma once

#include "partition/partitioner.h"

namespace pe::partition {

class HomogeneousPartitioner {
 public:
  explicit HomogeneousPartitioner(int partition_gpcs);

  PartitionPlan Plan(const hw::Cluster& cluster, int gpc_budget);

 private:
  int partition_gpcs_;
};

// Shared helper: packs `sizes` (with repair fallback) and assembles a plan.
PartitionPlan MakePlan(const hw::Cluster& cluster, std::vector<int> sizes,
                       std::string rationale);

}  // namespace pe::partition
