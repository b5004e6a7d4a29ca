// MIG placement rules for a single GPU.
//
// A100 exposes seven compute slices (GPCs).  A MIG GPU instance occupies a
// *contiguous* run of slices and may only start at profile-specific offsets
// (NVIDIA's "placement" table).  This module validates per-GPU layouts; the
// cluster packer (cluster.h) builds on it.
//
// Placement table modeled (start slots per profile size, A100):
//   1 GPC : slots {0,1,2,3,4,5,6}
//   2 GPCs: slots {0,2,4}
//   3 GPCs: slots {0,4}
//   4 GPCs: slots {0}
//   7 GPCs: slots {0}
// Examples of valid layouts: [7], [4,3], [3,2,1,1], [2,2,2,1], [1x7].
// Example of an *invalid* multiset: {4,4} (second 4g has no legal slot).
#pragma once

#include <optional>
#include <vector>

#include "hw/gpu_spec.h"

namespace pe::hw {

// One placed GPU instance within a GPU: profile size + start slot.
struct Placement {
  int gpcs = 0;
  int start_slot = 0;
};

// Returns the legal start slots for a profile of `gpcs` compute slices.
const std::vector<int>& LegalStartSlots(int gpcs);

// A single GPU's MIG layout: a set of non-overlapping placements.
class MigLayout {
 public:
  explicit MigLayout(const GpuSpec& spec = GpuSpec{});

  // Attempts to place an instance of `gpcs` slices at the lowest legal free
  // slot.  Returns the placement on success, nullopt if it cannot fit.
  std::optional<Placement> TryPlace(int gpcs);

  // True if the multiset of sizes can be placed on one empty GPU.
  static bool CanPlaceAll(const std::vector<int>& sizes,
                          const GpuSpec& spec = GpuSpec{});

 private:
  GpuSpec spec_;
  std::vector<bool> occupied_;  // per compute slice

  bool SlotRangeFree(int start, int len) const;
  void MarkRange(int start, int len, bool value);
};

}  // namespace pe::hw
