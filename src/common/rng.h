// Deterministic pseudo-random number generation for the simulation.
//
// Every experiment takes an explicit seed so runs are exactly reproducible.
// The generator is SplitMix64: tiny state, excellent statistical quality for
// simulation purposes, and trivially seedable.

#ifndef DRACONIS_COMMON_RNG_H_
#define DRACONIS_COMMON_RNG_H_

#include <cstdint>

#include "common/check.h"
#include "common/time.h"

namespace draconis {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + kGamma) {}

  // Next raw 64-bit value. This and NextBelow are inline: the idle-poll
  // fast-forward draws them once per elided hop.
  uint64_t NextU64() {
    state_ += kGamma;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound) {
    DRACONIS_CHECK(bound > 0);
    // Multiply-shift; bias is negligible for simulation bounds (< 2^32).
    return static_cast<uint64_t>((static_cast<__uint128_t>(NextU64()) * bound) >> 64);
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Exponentially distributed value with the given mean (> 0).
  double NextExponential(double mean);

  // Standard normal via Box-Muller (no caching; simplicity over speed).
  double NextNormal(double mean, double stddev);

  // Lognormal parameterized by the *target* mean and sigma of the underlying
  // normal. mean is the desired arithmetic mean of the lognormal output.
  double NextLognormalWithMean(double mean, double sigma);

  // Bounded Pareto on [lo, hi] with shape alpha (> 0).
  double NextBoundedPareto(double lo, double hi, double alpha);

  // True with probability p.
  bool NextBool(double p);

  // Exponential inter-arrival gap for a Poisson process of the given rate
  // (events per second), returned as a duration in nanoseconds (>= 1).
  TimeNs NextPoissonGap(double events_per_second);

  // Derives an independent stream; handy for giving each node its own RNG.
  Rng Fork();

 private:
  static constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  uint64_t state_;
};

}  // namespace draconis

#endif  // DRACONIS_COMMON_RNG_H_
