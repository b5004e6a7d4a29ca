#include "workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace pe::workload {

PoissonArrivals::PoissonArrivals(double rate_qps) : rate_qps_(rate_qps) {
  if (!std::isfinite(rate_qps) || rate_qps <= 0.0) {
    throw std::invalid_argument(
        "PoissonArrivals: rate must be a finite positive number, got " +
        std::to_string(rate_qps));
  }
}

SimTime PoissonArrivals::NextGap(Rng& rng) {
  const double gap_sec = rng.Exponential(rate_qps_);
  return std::max<SimTime>(1, SecToTicks(gap_sec));
}

std::string PoissonArrivals::Describe() const {
  std::ostringstream oss;
  oss << "poisson(rate=" << rate_qps_ << " qps)";
  return oss.str();
}

}  // namespace pe::workload
