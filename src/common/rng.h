// Deterministic random number generation.
//
// The simulator must be reproducible: the same configuration and seed must
// produce bit-identical traces and results on every platform.  We therefore
// avoid std::mt19937 + std::*_distribution (whose outputs are not specified
// across standard library implementations) and implement a small, fully
// specified generator (xoshiro256**) together with the handful of
// distributions the paper's workload model needs: uniform, exponential
// (Poisson inter-arrival gaps) and log-normal (batch-size distribution).
#pragma once

#include <array>
#include <cstdint>

namespace pe {

// SplitMix64 step (Steele et al.): adds the golden-ratio gamma and runs
// the bijective 64-bit finalizer.  This is the single shared definition of
// the mixer the whole codebase uses -- Rng seeds its xoshiro state with it,
// and the fleet tier derives hash salts and per-server seed streams from
// it as a pure function (no generator state).
constexpr std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// An inclusive integer range [lo, hi] for Rng::UniformInt, with the
// rejection limit of its unbiased draw precomputed: loops drawing from one
// range many times build it once instead of recomputing the limit (a
// 64-bit modulo) on every draw.  Requires lo <= hi.
class UniformIntRange {
 public:
  UniformIntRange(std::int64_t lo, std::int64_t hi);

 private:
  friend class Rng;
  std::int64_t lo_ = 0;
  std::uint64_t span_ = 0;   // hi - lo + 1; 0 encodes the full 64-bit range
  std::uint64_t limit_ = 0;  // draws at or above this are rejected
};

// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
// implementation), seeded via SplitMix64 so that any 64-bit seed --
// including zero -- yields a well-mixed state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Uniform 64-bit draw.
  std::uint64_t NextU64();

  // Uniform double in [0, 1).  Uses the top 53 bits of a 64-bit draw.
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return UniformInt(UniformIntRange(lo, hi));
  }

  // The same draw over a precomputed range: identical values and stream
  // consumption to UniformInt(lo, hi).
  std::int64_t UniformInt(const UniformIntRange& range);

  // Exponentially distributed draw with the given rate parameter
  // (mean = 1/rate).  Requires rate > 0.
  double Exponential(double rate);

  // Standard normal draw (Box-Muller, both values used alternately).
  double Normal();

  // Normal draw with given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Log-normal draw: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  // Derives an independent child stream; used to give each simulator
  // component its own stream so that adding draws in one component does not
  // perturb another.
  Rng Fork();

 private:
  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace pe
