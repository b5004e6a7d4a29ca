#include "common/stats.h"

#include <algorithm>
#include <cassert>

namespace pe {

void Percentile::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Percentile::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Percentile::Value(double p) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  assert(p >= 0.0 && p <= 100.0);
  if (samples_.size() == 1) return samples_.front();
  const double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  const auto lo_idx = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo_idx);
  if (lo_idx + 1 >= samples_.size()) return samples_.back();
  return samples_[lo_idx] * (1.0 - frac) + samples_[lo_idx + 1] * frac;
}

double Percentile::Mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double Percentile::Max() const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  return samples_.back();
}

void Percentile::Clear() {
  samples_.clear();
  sorted_ = true;
}

}  // namespace pe
