#include "partition/homogeneous.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "hw/gpu_spec.h"

namespace pe::partition {

int PartitionPlan::TotalGpcs() const {
  return std::accumulate(instance_gpcs.begin(), instance_gpcs.end(), 0);
}

std::string PartitionPlan::Summary() const {
  // Count instances per size, descending by size.
  std::ostringstream oss;
  std::vector<int> sorted = instance_gpcs;
  std::sort(sorted.begin(), sorted.end(), std::greater<int>());
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    if (i > 0) oss << ' ';
    oss << (j - i) << "xGPU(" << sorted[i] << ")";
    i = j;
  }
  return oss.str();
}

PartitionPlan MakePlan(const hw::Cluster& cluster, std::vector<int> sizes,
                       std::string rationale) {
  auto layout = hw::PackWithRepair(cluster, std::move(sizes));
  if (!layout) {
    throw std::runtime_error("MakePlan: instance multiset does not fit");
  }
  PartitionPlan plan;
  plan.instance_gpcs = layout->AllInstanceSizes();
  plan.layout = std::move(*layout);
  plan.rationale = std::move(rationale);
  return plan;
}

HomogeneousPartitioner::HomogeneousPartitioner(int partition_gpcs)
    : partition_gpcs_(partition_gpcs) {
  if (!hw::GpuSpec::IsValidPartitionSize(partition_gpcs)) {
    throw std::invalid_argument("HomogeneousPartitioner: invalid size " +
                                std::to_string(partition_gpcs));
  }
}

PartitionPlan HomogeneousPartitioner::Plan(const hw::Cluster& cluster,
                                           int gpc_budget) {
  if (gpc_budget < partition_gpcs_) {
    throw std::runtime_error(
        "HomogeneousPartitioner: budget below one instance");
  }
  const int budget = std::min(gpc_budget, cluster.total_gpcs());
  // Per-GPU instance count is limited by MIG placement (e.g. only one
  // GPU(4) per A100 despite 7 GPCs).
  int per_gpu = 0;
  {
    hw::MigLayout layout(cluster.spec());
    while (layout.TryPlace(partition_gpcs_)) ++per_gpu;
  }
  const int budget_limit = budget / partition_gpcs_;
  const int placement_limit = per_gpu * cluster.num_gpus();
  const int count = std::min(budget_limit, placement_limit);
  if (count <= 0) {
    throw std::runtime_error("HomogeneousPartitioner: no instance fits");
  }
  std::vector<int> sizes(static_cast<std::size_t>(count), partition_gpcs_);
  std::ostringstream why;
  why << "homogeneous GPU(" << partition_gpcs_ << "): budget " << budget
      << " GPCs -> " << count << " instances";
  // Homogeneous plans must not be silently repaired into heterogeneous
  // ones; Pack directly (the count above is placement-feasible by
  // construction).
  auto layout = cluster.Pack(sizes);
  if (!layout) {
    throw std::runtime_error("HomogeneousPartitioner: packing failed");
  }
  PartitionPlan plan;
  plan.instance_gpcs = layout->AllInstanceSizes();
  plan.layout = std::move(*layout);
  plan.rationale = why.str();
  return plan;
}

}  // namespace pe::partition
