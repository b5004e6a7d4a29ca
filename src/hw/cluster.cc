#include "hw/cluster.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <sstream>

namespace pe::hw {

std::vector<int> ClusterLayout::AllInstanceSizes() const {
  std::vector<int> all;
  for (const auto& gpu : per_gpu) {
    all.insert(all.end(), gpu.begin(), gpu.end());
  }
  std::sort(all.begin(), all.end(), std::greater<int>());
  return all;
}

std::string ClusterLayout::ToString() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < per_gpu.size(); ++i) {
    if (i > 0) oss << ' ';
    oss << "GPU" << i << "{";
    for (std::size_t j = 0; j < per_gpu[i].size(); ++j) {
      if (j > 0) oss << ',';
      oss << per_gpu[i][j];
    }
    oss << '}';
  }
  return oss.str();
}

Cluster::Cluster(int num_gpus, GpuSpec spec)
    : num_gpus_(num_gpus), spec_(std::move(spec)) {
  assert(num_gpus_ > 0);
}

std::optional<ClusterLayout> Cluster::Pack(
    const std::vector<int>& sizes) const {
  for (int s : sizes) {
    if (!GpuSpec::IsValidPartitionSize(s)) return std::nullopt;
  }
  const int total =
      std::accumulate(sizes.begin(), sizes.end(), 0);
  if (total > total_gpcs()) return std::nullopt;

  std::vector<int> sorted = sizes;
  std::sort(sorted.begin(), sorted.end(), std::greater<int>());

  // Backtracking first-fit: assign each instance (largest first) to the
  // first GPU whose current multiset remains placeable.  To prune symmetric
  // branches, an instance never starts a new GPU beyond the first empty one.
  std::vector<std::vector<int>> gpus(static_cast<std::size_t>(num_gpus_));
  std::vector<int> used(static_cast<std::size_t>(num_gpus_), 0);

  std::function<bool(std::size_t)> assign = [&](std::size_t idx) -> bool {
    if (idx == sorted.size()) return true;
    const int g = sorted[idx];
    bool tried_empty = false;
    for (std::size_t gi = 0; gi < gpus.size(); ++gi) {
      if (used[gi] + g > spec_.gpcs) continue;
      const bool is_empty = gpus[gi].empty();
      if (is_empty) {
        if (tried_empty) continue;  // symmetric to a previous empty GPU
        tried_empty = true;
      }
      gpus[gi].push_back(g);
      if (MigLayout::CanPlaceAll(gpus[gi], spec_)) {
        used[gi] += g;
        if (assign(idx + 1)) return true;
        used[gi] -= g;
      }
      gpus[gi].pop_back();
    }
    return false;
  };

  if (!assign(0)) return std::nullopt;

  ClusterLayout layout;
  layout.spec = spec_;
  layout.per_gpu = std::move(gpus);
  for (auto& gpu : layout.per_gpu) {
    std::sort(gpu.begin(), gpu.end(), std::greater<int>());
  }
  return layout;
}

std::optional<ClusterLayout> PackWithRepair(const Cluster& cluster,
                                            std::vector<int> sizes) {
  // Split table preserving total GPC count.
  auto split = [](int g) -> std::vector<int> {
    switch (g) {
      case 7: return {4, 3};
      case 4: return {3, 1};
      case 3: return {2, 1};
      case 2: return {1, 1};
      default: return {};
    }
  };
  for (;;) {
    auto packed = cluster.Pack(sizes);
    if (packed) return packed;
    // Find the largest splittable partition.
    auto it = std::max_element(sizes.begin(), sizes.end());
    if (it == sizes.end() || *it <= 1) return std::nullopt;
    const auto parts = split(*it);
    // A size with no split rule (an invalid MIG profile) cannot be
    // repaired; erasing it would silently shrink the demand instead.
    if (parts.empty()) return std::nullopt;
    sizes.erase(it);
    sizes.insert(sizes.end(), parts.begin(), parts.end());
  }
}

}  // namespace pe::hw
