#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace pe {
namespace {

// Stateful SplitMix64 stream over the shared Mix64 finalizer: returns
// Mix64 of the advanced state.  Bit-identical to the historical inline
// implementation (the gamma added before mixing is the same one Mix64
// applies internally).
std::uint64_t SplitMix64(std::uint64_t& x) {
  const std::uint64_t z = Mix64(x);
  x += 0x9E3779B97F4A7C15ULL;
  return z;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = SplitMix64(s);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

UniformIntRange::UniformIntRange(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  lo_ = lo;
  // Unsigned, so the full 64-bit range wraps to 0 instead of overflowing.
  span_ = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // Rejection sampling to avoid modulo bias.
  limit_ = span_ == 0 ? 0 : UINT64_MAX - UINT64_MAX % span_;
  // ~0 / span + 1 is ceil(2^128 / span), wrapping to 0 for span 1 (whose
  // remainder is 0 anyway).
  if (span_ != 0 && span_ >> 32 == 0) mod_mul_ = ~U128{0} / span_ + 1;
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

}  // namespace pe
