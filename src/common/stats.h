// Percentile: exact percentile over a retained sample vector (tail
// latency is the paper's headline metric, so we keep exact samples rather
// than an approximate sketch).  Run statistics use sim::StatsAccumulator,
// which reproduces Percentile's interpolation over integer ticks.
#pragma once

#include <cstddef>
#include <vector>

namespace pe {

// Exact percentile estimator.  Samples are retained; Value() sorts lazily.
class Percentile {
 public:
  void Add(double x);
  void Reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }

  // Returns the p-th percentile (p in [0, 100]) using linear interpolation
  // between closest ranks.  Returns 0 for an empty set.
  double Value(double p) const;

  // Convenience accessors for the percentiles the paper reports.
  double P50() const { return Value(50.0); }
  double P95() const { return Value(95.0); }
  double P99() const { return Value(99.0); }

  double Mean() const;
  double Max() const;

  void Clear();

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;

  void EnsureSorted() const;
};

}  // namespace pe
