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
#include <cassert>
#include <cmath>
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
// rejection limit of its unbiased draw and the multiplier of its remainder
// precomputed: loops drawing from one range many times build it once.
// Requires lo <= hi.
//
// The draw is `lo + draw % span` over 64-bit draws below the rejection
// limit.  For spans below 2^32 the remainder is computed by
// multiplication ("Faster Remainder by Direct Computation", Lemire, Kaser
// & Kurz, 2019): with c = ceil(2^128 / span) taken mod 2^128,
//   draw % span == ((c * draw mod 2^128) * span) >> 128
// for every 64-bit draw, because 128 >= 64 + ceil(log2 span) (their
// Theorem 1 with N = 64, F = 128).  Larger spans keep the hardware
// remainder.  Either way the value is the exact remainder, so the draws
// and the stream consumption are those of the plain `%`.
class UniformIntRange {
 public:
  UniformIntRange(std::int64_t lo, std::int64_t hi);

 private:
  friend class Rng;
  using U128 = unsigned __int128;  // a GCC and Clang builtin

  std::uint64_t Remainder(std::uint64_t draw) const {
    if (span_ >> 32 != 0) return draw % span_;
    const U128 low = mod_mul_ * draw;
    const U128 bottom =
        (static_cast<U128>(static_cast<std::uint64_t>(low)) * span_) >> 64;
    const U128 top =
        static_cast<U128>(static_cast<std::uint64_t>(low >> 64)) * span_;
    return static_cast<std::uint64_t>((top + bottom) >> 64);
  }

  std::int64_t lo_ = 0;
  std::uint64_t span_ = 0;   // hi - lo + 1; 0 encodes the full 64-bit range
  std::uint64_t limit_ = 0;  // draws at or above this are rejected
  U128 mod_mul_ = 0;         // ceil(2^128 / span) mod 2^128; spans < 2^32
};

// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
// implementation), seeded via SplitMix64 so that any 64-bit seed --
// including zero -- yields a well-mixed state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Uniform 64-bit draw.
  std::uint64_t NextU64() {
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

  // Uniform double in [0, 1).  Uses the top 53 bits of a 64-bit draw, so
  // every value is a multiple of 2^-53 and the largest is 1 - 2^-53.
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return UniformInt(UniformIntRange(lo, hi));
  }

  // The same draw over a precomputed range: identical values and stream
  // consumption to UniformInt(lo, hi).
  std::int64_t UniformInt(const UniformIntRange& range) {
    if (range.span_ == 0) return static_cast<std::int64_t>(NextU64());
    std::uint64_t draw;
    do {
      draw = NextU64();
    } while (draw >= range.limit_);
    return range.lo_ + static_cast<std::int64_t>(range.Remainder(draw));
  }

  // Exponentially distributed draw with the given rate parameter
  // (mean = 1/rate).  Requires rate > 0.
  double Exponential(double rate) {
    assert(rate > 0.0);
    // 1 - u is in (0, 1], so the log is finite.
    return -std::log(1.0 - NextDouble()) / rate;
  }

  // Standard normal draw (Box-Muller, both values used alternately).
  double Normal();

  // Normal draw with given mean and standard deviation.
  double Normal(double mean, double stddev);

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace pe
