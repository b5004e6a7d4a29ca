// Query arrival processes.
//
// The paper uses MLPerf's recommended Poisson arrival process; bursty and
// time-varying load comes from the scenario layer (workload/scenario.h).
#pragma once

#include <memory>
#include <string>

#include "common/rng.h"
#include "common/sim_time.h"

namespace pe::workload {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  // Returns the gap to the next arrival (strictly positive ticks).
  virtual SimTime NextGap(Rng& rng) = 0;

  // Mean offered load in queries/sec.
  virtual double MeanRateQps() const = 0;

  virtual std::string Describe() const = 0;
};

// Poisson arrivals: i.i.d. exponential gaps at `rate_qps`.
class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate_qps);

  SimTime NextGap(Rng& rng) override;
  double MeanRateQps() const override { return rate_qps_; }
  std::string Describe() const override;

 private:
  double rate_qps_;
};

}  // namespace pe::workload
