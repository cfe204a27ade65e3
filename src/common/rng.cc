#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace draconis {

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  DRACONIS_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextExponential(double mean) {
  DRACONIS_CHECK(mean > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::NextNormal(double mean, double stddev) {
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

double Rng::NextLognormalWithMean(double mean, double sigma) {
  DRACONIS_CHECK(mean > 0.0);
  // If X = exp(N(mu, sigma)), E[X] = exp(mu + sigma^2/2); solve for mu.
  const double mu = std::log(mean) - sigma * sigma / 2.0;
  return std::exp(NextNormal(mu, sigma));
}

double Rng::NextBoundedPareto(double lo, double hi, double alpha) {
  DRACONIS_CHECK(lo > 0.0 && hi > lo && alpha > 0.0);
  const double u = NextDouble();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

TimeNs Rng::NextPoissonGap(double events_per_second) {
  DRACONIS_CHECK(events_per_second > 0.0);
  const double gap_seconds = NextExponential(1.0 / events_per_second);
  const auto gap = static_cast<TimeNs>(gap_seconds * kSecond);
  return gap > 0 ? gap : 1;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace draconis
