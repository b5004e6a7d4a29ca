#include "workload/arrival.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pe::workload {

PoissonArrivals::PoissonArrivals(double rate_qps) : rate_qps_(rate_qps) {
  if (!std::isfinite(rate_qps) || rate_qps <= 0.0) {
    throw std::invalid_argument(
        "PoissonArrivals: rate must be a finite positive number, got " +
        std::to_string(rate_qps));
  }
}

void ThrowClockOverflow(const char* what, const char* quantity, double rate) {
  std::ostringstream oss;
  oss << what << ": " << quantity
      << " overflows the tick clock (2^63 ns) at rate " << rate << "/s";
  throw std::overflow_error(oss.str());
}

}  // namespace pe::workload
