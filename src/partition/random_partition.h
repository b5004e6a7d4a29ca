// Random heterogeneous partitioning: the paper's "Random" baseline
// (Section VI), included "to demonstrate the importance of accommodating
// model properties and batch size distribution when heterogeneously
// partitioning".  Draws random valid MIG layouts GPU by GPU until the GPC
// budget is consumed.  Seeded and deterministic.
#pragma once

#include "common/rng.h"
#include "partition/partitioner.h"

namespace pe::partition {

class RandomPartitioner {
 public:
  explicit RandomPartitioner(std::uint64_t seed = 0xBADD5EED);

  PartitionPlan Plan(const hw::Cluster& cluster, int gpc_budget);

 private:
  std::uint64_t seed_;
};

}  // namespace pe::partition
