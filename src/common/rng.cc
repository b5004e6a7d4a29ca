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

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = SplitMix64(s);
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
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
}

std::int64_t Rng::UniformInt(const UniformIntRange& range) {
  if (range.span_ == 0) return static_cast<std::int64_t>(NextU64());
  std::uint64_t draw;
  do {
    draw = NextU64();
  } while (draw >= range.limit_);
  return range.lo_ + static_cast<std::int64_t>(draw % range.span_);
}

double Rng::Exponential(double rate) {
  assert(rate > 0.0);
  // 1 - u is in (0, 1], so the log is finite.
  return -std::log(1.0 - NextDouble()) / rate;
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

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

Rng Rng::Fork() {
  Rng child(0);
  for (auto& w : child.state_) w = NextU64();
  return child;
}

}  // namespace pe
