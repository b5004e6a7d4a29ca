// Query arrivals.
//
// The paper uses MLPerf's recommended Poisson arrival process; bursty and
// time-varying load comes from the scenario layer (workload/scenario.h).
#pragma once

#include <algorithm>
#include <optional>

#include "common/rng.h"
#include "common/sim_time.h"

namespace pe::workload {

// Throws std::overflow_error: `what`'s `quantity` ("gap", "arrival time")
// does not fit the tick clock at `rate` events per second.
[[noreturn]] void ThrowClockOverflow(const char* what, const char* quantity,
                                     double rate);

// One Exponential(rate) draw in seconds as a gap of at least one tick: the
// gap rule shared by every arrival clock (Poisson arrivals, scenario
// curves, the burst clock).  Throws std::overflow_error naming `what` and
// the rate when the gap does not fit SimTime (a rate so low the gap
// exceeds 2^63 - 1 ns).
inline SimTime ExponentialGap(Rng& rng, double rate, const char* what) {
  const std::optional<SimTime> gap =
      CheckedTicks(rng.Exponential(rate), kNsPerSec);
  if (!gap) ThrowClockOverflow(what, "gap", rate);
  return std::max<SimTime>(1, *gap);
}

// `now + gap` on an arrival clock; throws std::overflow_error naming
// `what` and the rate when the instant would pass 2^63 - 1 ns.
inline SimTime AdvanceClock(SimTime now, SimTime gap, double rate,
                            const char* what) {
  const std::optional<SimTime> next = CheckedAdd(now, gap);
  if (!next) ThrowClockOverflow(what, "arrival time", rate);
  return *next;
}

// Poisson arrivals: i.i.d. exponential gaps at `rate_qps`.
class PoissonArrivals {
 public:
  // Throws std::invalid_argument unless `rate_qps` is a finite positive
  // number.
  explicit PoissonArrivals(double rate_qps);

  // Returns the gap to the next arrival (strictly positive ticks); throws
  // what ExponentialGap throws.
  SimTime NextGap(Rng& rng) {
    return ExponentialGap(rng, rate_qps_, "PoissonArrivals");
  }
  // `now` advanced by NextGap, checked like AdvanceClock.
  SimTime Advance(SimTime now, Rng& rng) {
    return AdvanceClock(now, NextGap(rng), rate_qps_, "PoissonArrivals");
  }

 private:
  double rate_qps_;
};

}  // namespace pe::workload
