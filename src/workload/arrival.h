// Query arrivals.
//
// The paper uses MLPerf's recommended Poisson arrival process; bursty and
// time-varying load comes from the scenario layer (workload/scenario.h).
#pragma once

#include <string>

#include "common/rng.h"
#include "common/sim_time.h"

namespace pe::workload {

// Poisson arrivals: i.i.d. exponential gaps at `rate_qps`.
class PoissonArrivals {
 public:
  // Throws std::invalid_argument unless `rate_qps` is a finite positive
  // number.
  explicit PoissonArrivals(double rate_qps);

  // Returns the gap to the next arrival (strictly positive ticks).
  SimTime NextGap(Rng& rng);
  std::string Describe() const;

 private:
  double rate_qps_;
};

}  // namespace pe::workload
