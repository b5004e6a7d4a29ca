#include "hw/mig.h"

#include <algorithm>
#include <functional>

namespace pe::hw {

const std::vector<int>& LegalStartSlots(int gpcs) {
  static const std::vector<int> kOne = {0, 1, 2, 3, 4, 5, 6};
  static const std::vector<int> kTwo = {0, 2, 4};
  static const std::vector<int> kThree = {0, 4};
  static const std::vector<int> kFour = {0};
  static const std::vector<int> kSeven = {0};
  static const std::vector<int> kNone = {};
  switch (gpcs) {
    case 1: return kOne;
    case 2: return kTwo;
    case 3: return kThree;
    case 4: return kFour;
    case 7: return kSeven;
    default: return kNone;
  }
}

MigLayout::MigLayout(const GpuSpec& spec)
    : spec_(spec), occupied_(static_cast<std::size_t>(spec.gpcs), false) {}

bool MigLayout::SlotRangeFree(int start, int len) const {
  if (start + len > spec_.gpcs) return false;
  for (int i = start; i < start + len; ++i) {
    if (occupied_[static_cast<std::size_t>(i)]) return false;
  }
  return true;
}

void MigLayout::MarkRange(int start, int len, bool value) {
  for (int i = start; i < start + len; ++i) {
    occupied_[static_cast<std::size_t>(i)] = value;
  }
}

std::optional<Placement> MigLayout::TryPlace(int gpcs) {
  for (int slot : LegalStartSlots(gpcs)) {
    if (SlotRangeFree(slot, gpcs)) {
      MarkRange(slot, gpcs, true);
      return Placement{gpcs, slot};
    }
  }
  return std::nullopt;
}

bool MigLayout::CanPlaceAll(const std::vector<int>& sizes,
                            const GpuSpec& spec) {
  // Backtracking over placement order: try to place each remaining size at
  // each of its legal slots.  The search space is tiny (<= 7 instances).
  std::vector<int> remaining = sizes;
  std::sort(remaining.begin(), remaining.end(), std::greater<int>());
  std::vector<bool> occupied(static_cast<std::size_t>(spec.gpcs), false);

  std::function<bool(std::size_t)> place = [&](std::size_t idx) -> bool {
    if (idx == remaining.size()) return true;
    const int g = remaining[idx];
    if (!GpuSpec::IsValidPartitionSize(g)) return false;
    for (int slot : LegalStartSlots(g)) {
      bool free = slot + g <= spec.gpcs;
      for (int i = slot; free && i < slot + g; ++i) {
        free = !occupied[static_cast<std::size_t>(i)];
      }
      if (!free) continue;
      for (int i = slot; i < slot + g; ++i) {
        occupied[static_cast<std::size_t>(i)] = true;
      }
      if (place(idx + 1)) return true;
      for (int i = slot; i < slot + g; ++i) {
        occupied[static_cast<std::size_t>(i)] = false;
      }
    }
    return false;
  };
  return place(0);
}

}  // namespace pe::hw
