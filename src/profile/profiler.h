// Profiler: runs the roofline model over the (partition size x batch size)
// grid to build the one-time ProfileTable the paper's Section IV relies on.
#pragma once

#include <vector>

#include "perf/model.h"
#include "perf/roofline.h"
#include "profile/profile_table.h"

namespace pe::profile {

struct ProfilerConfig {
  // Partition sizes to profile; defaults to MIG's {1, 2, 3, 4, 7}.
  std::vector<int> partition_sizes;
  // Batch sizes to profile; defaults to powers of two 1..64 plus the
  // intermediate even grid, matching the paper's Figure 4 sweep.
  std::vector<int> batch_sizes;

  static ProfilerConfig Default(int max_batch = 64);
};

class Profiler {
 public:
  explicit Profiler(perf::RooflineEngine engine = perf::RooflineEngine{});

  // Profiles the model over the grid.
  ProfileTable Profile(const perf::DnnModel& model,
                       const ProfilerConfig& config =
                           ProfilerConfig::Default()) const;

 private:
  perf::RooflineEngine engine_;
};

}  // namespace pe::profile
