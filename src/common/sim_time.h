// Simulation time representation.
//
// All simulator components agree on a single integral time base so that
// event ordering is exact and runs are bit-reproducible.  Time is measured
// in nanoseconds since the start of the simulation and stored in a signed
// 64-bit integer, which covers ~292 years of simulated time -- far beyond
// any experiment in this repository.
#pragma once

#include <cstdint>
#include <optional>

namespace pe {

// Nanoseconds since simulation start.
using SimTime = std::int64_t;

inline constexpr SimTime kNsPerUs = 1'000;
inline constexpr SimTime kNsPerMs = 1'000'000;
inline constexpr SimTime kNsPerSec = 1'000'000'000;

// Converts a duration in (floating-point) milliseconds to SimTime ticks,
// rounding to the nearest nanosecond.  Negative durations are preserved.
constexpr SimTime MsToTicks(double ms) {
  return static_cast<SimTime>(ms * static_cast<double>(kNsPerMs) +
                              (ms >= 0 ? 0.5 : -0.5));
}

// Converts a duration in (floating-point) microseconds to SimTime ticks.
constexpr SimTime UsToTicks(double us) {
  return static_cast<SimTime>(us * static_cast<double>(kNsPerUs) +
                              (us >= 0 ? 0.5 : -0.5));
}

// Converts a duration in (floating-point) seconds to SimTime ticks.
constexpr SimTime SecToTicks(double sec) {
  return static_cast<SimTime>(sec * static_cast<double>(kNsPerSec) +
                              (sec >= 0 ? 0.5 : -0.5));
}

// Checked tick arithmetic, for durations and instants that come from user
// input or from a random draw: a double-to-int64 cast at or past 2^63 and
// a signed overflow are both undefined behaviour, so these report "does
// not fit" instead.

// 2^63 ns, the first tick count SimTime cannot hold.
inline constexpr double kTickLimit = 9223372036854775808.0;

// `amount` units of `unit_ticks` ns each, rounded to the nearest tick as
// MsToTicks/UsToTicks/SecToTicks round, or nullopt when `amount` is
// negative, NaN, or too large for SimTime.
constexpr std::optional<SimTime> CheckedTicks(double amount,
                                              SimTime unit_ticks) {
  const double ticks = amount * static_cast<double>(unit_ticks) + 0.5;
  if (!(amount >= 0.0) || !(ticks < kTickLimit)) return std::nullopt;
  return static_cast<SimTime>(ticks);
}

// `at + delay`, or nullopt when the sum overflows SimTime.
constexpr std::optional<SimTime> CheckedAdd(SimTime at, SimTime delay) {
  SimTime sum = 0;
  if (__builtin_add_overflow(at, delay, &sum)) return std::nullopt;
  return sum;
}

// Converts SimTime ticks to milliseconds.
constexpr double TicksToMs(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kNsPerMs);
}

// Converts SimTime ticks to seconds.
constexpr double TicksToSec(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kNsPerSec);
}

}  // namespace pe
