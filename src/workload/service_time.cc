#include "workload/service_time.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "common/check.h"
#include "common/json.h"

namespace draconis::workload {
namespace {

// Largest double that casts to TimeNs without overflow; heavy-tail and
// Pareto draws are clamped here before the integer cast (UB otherwise).
constexpr double kMaxSampleNs = 9.0e18;

std::string FormatParam(double value) { return json::Writer::FormatDouble(value); }

std::string AsciiLower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
  }
  return s;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool ParseStrictDouble(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

ServiceTime ServiceTime::Fixed(TimeNs value) {
  DRACONIS_CHECK(value >= 0);
  ServiceTime st(Kind::kFixed, FormatDuration(value) + " fixed");
  st.fixed_value_ = value;
  st.name_ = "fixed:" + FormatDuration(value);
  return st;
}

ServiceTime ServiceTime::Mixture(std::vector<TimeNs> values, std::vector<double> weights,
                                 std::string label) {
  DRACONIS_CHECK(!values.empty() && values.size() == weights.size());
  ServiceTime st(Kind::kMixture, std::move(label));
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  DRACONIS_CHECK(total > 0.0);
  double cumulative = 0.0;
  std::string name = "mix:";
  for (size_t i = 0; i < values.size(); ++i) {
    cumulative += weights[i] / total;
    st.values_.push_back(values[i]);
    st.cumulative_.push_back(cumulative);
    if (i > 0) {
      name += '+';
    }
    name += FormatDuration(values[i]) + "@" + FormatParam(weights[i] / total);
  }
  st.cumulative_.back() = 1.0;
  st.name_ = std::move(name);
  return st;
}

ServiceTime ServiceTime::Exponential(TimeNs mean) {
  DRACONIS_CHECK(mean > 0);
  ServiceTime st(Kind::kExponential, FormatDuration(mean) + " exponential");
  st.mean_ = mean;
  st.name_ = "exp:" + FormatDuration(mean);
  return st;
}

ServiceTime ServiceTime::Lognormal(TimeNs mean, double sigma) {
  DRACONIS_CHECK(mean > 0 && sigma > 0.0);
  ServiceTime st(Kind::kLognormal, FormatDuration(mean) + " lognormal");
  st.mean_ = mean;
  st.sigma_ = sigma;
  st.name_ = "lognormal:" + FormatDuration(mean) + ":" + FormatParam(sigma);
  return st;
}

ServiceTime ServiceTime::Pareto(TimeNs mean, double alpha) {
  DRACONIS_CHECK_MSG(mean > 0 && alpha > 1.0, "Pareto needs mean > 0 and alpha > 1");
  ServiceTime st(Kind::kPareto, FormatDuration(mean) + " pareto");
  st.mean_ = mean;
  st.alpha_ = alpha;
  st.name_ = "pareto:" + FormatDuration(mean) + ":" + FormatParam(alpha);
  return st;
}

ServiceTime ServiceTime::HeavyTail(ServiceTime base, double prob, double mult) {
  DRACONIS_CHECK_MSG(prob >= 0.0 && prob <= 1.0, "heavy-tail prob must be in [0, 1]");
  DRACONIS_CHECK_MSG(mult > 0.0, "heavy-tail mult must be positive");
  ServiceTime st(Kind::kHeavyTail, base.label() + " +tail");
  st.hv_prob_ = prob;
  st.hv_mult_ = mult;
  st.name_ =
      "heavytail:" + FormatParam(prob) + ":" + FormatParam(mult) + ":" + base.Name();
  st.base_ = std::make_shared<const ServiceTime>(std::move(base));
  return st;
}

ServiceTime ServiceTime::PaperBimodal() {
  ServiceTime st =
      Mixture({FromMicros(100), FromMicros(500)}, {0.5, 0.5}, "bimodal 100/500us");
  st.name_ = "bimodal";
  return st;
}

ServiceTime ServiceTime::PaperTrimodal() {
  ServiceTime st = Mixture({FromMicros(100), FromMicros(250), FromMicros(500)},
                           {1.0, 1.0, 1.0}, "trimodal 100/250/500us");
  st.name_ = "trimodal";
  return st;
}

ServiceTime ServiceTime::PaperExponential() {
  ServiceTime st = Exponential(FromMicros(250));
  st.name_ = "exponential";
  return st;
}

bool ServiceTime::FromName(const std::string& name, ServiceTime* out, std::string* error) {
  const auto fail = [error](std::string msg) { return json::Fail(error, std::move(msg)); };
  const size_t colon = name.find(':');
  const std::string head =
      AsciiLower(colon == std::string::npos ? name : name.substr(0, colon));
  const std::string rest = colon == std::string::npos ? "" : name.substr(colon + 1);

  if (colon == std::string::npos) {
    if (head == "bimodal") {
      *out = PaperBimodal();
      return true;
    }
    if (head == "trimodal") {
      *out = PaperTrimodal();
      return true;
    }
    if (head == "exponential" || head == "exp") {
      *out = PaperExponential();
      return true;
    }
    return fail("unknown service-time model '" + name +
                "'; expected e.g. fixed:500us, bimodal, trimodal, exponential, "
                "exp:250us, lognormal:500us:1.2, pareto:250us:1.3, "
                "mix:100us@0.5+500us@0.5, heavytail:0.01:10:<base>");
  }

  if (head == "fixed") {
    TimeNs value = 0;
    if (!ParseDuration(rest, &value)) {
      return fail("fixed: bad duration '" + rest + "'");
    }
    *out = Fixed(value);
    return true;
  }
  if (head == "exp" || head == "exponential") {
    TimeNs mean = 0;
    if (!ParseDuration(rest, &mean) || mean <= 0) {
      return fail("exp: bad mean duration '" + rest + "'");
    }
    *out = Exponential(mean);
    return true;
  }
  if (head == "lognormal") {
    const std::vector<std::string> parts = Split(rest, ':');
    TimeNs mean = 0;
    double sigma = 0.0;
    if (parts.size() != 2 || !ParseDuration(parts[0], &mean) || mean <= 0 ||
        !ParseStrictDouble(parts[1], &sigma) || sigma <= 0.0) {
      return fail("lognormal: expected lognormal:<mean>:<sigma> with sigma > 0, got '" +
                  rest + "'");
    }
    *out = Lognormal(mean, sigma);
    return true;
  }
  if (head == "pareto") {
    const std::vector<std::string> parts = Split(rest, ':');
    TimeNs mean = 0;
    double alpha = 0.0;
    if (parts.size() != 2 || !ParseDuration(parts[0], &mean) || mean <= 0 ||
        !ParseStrictDouble(parts[1], &alpha) || alpha <= 1.0) {
      return fail("pareto: expected pareto:<mean>:<alpha> with alpha > 1, got '" + rest +
                  "'");
    }
    *out = Pareto(mean, alpha);
    return true;
  }
  if (head == "mix") {
    std::vector<TimeNs> values;
    std::vector<double> weights;
    for (const std::string& part : Split(rest, '+')) {
      const size_t at = part.find('@');
      TimeNs value = 0;
      double weight = 0.0;
      if (at == std::string::npos || !ParseDuration(part.substr(0, at), &value) ||
          !ParseStrictDouble(part.substr(at + 1), &weight) || weight <= 0.0) {
        return fail("mix: expected <duration>@<weight> components joined by '+', got '" +
                    part + "'");
      }
      values.push_back(value);
      weights.push_back(weight);
    }
    if (values.empty()) {
      return fail("mix: no components in '" + rest + "'");
    }
    *out = Mixture(values, weights, "mixture " + rest);
    return true;
  }
  if (head == "heavytail") {
    const size_t c1 = rest.find(':');
    const size_t c2 = c1 == std::string::npos ? std::string::npos : rest.find(':', c1 + 1);
    double prob = 0.0;
    double mult = 0.0;
    if (c2 == std::string::npos || !ParseStrictDouble(rest.substr(0, c1), &prob) ||
        prob < 0.0 || prob > 1.0 ||
        !ParseStrictDouble(rest.substr(c1 + 1, c2 - c1 - 1), &mult) || mult <= 0.0) {
      return fail("heavytail: expected heavytail:<prob>:<mult>:<base> with prob in "
                  "[0, 1] and mult > 0, got '" +
                  rest + "'");
    }
    ServiceTime base = Fixed(0);
    if (!FromName(rest.substr(c2 + 1), &base, error)) {
      return false;
    }
    *out = HeavyTail(std::move(base), prob, mult);
    return true;
  }
  return fail("unknown service-time model '" + name + "'");
}

const std::vector<std::string>& ServiceTime::NameTemplates() {
  static const std::vector<std::string> kTemplates = {
      "fixed:<duration>",
      "bimodal",
      "trimodal",
      "exponential",
      "exp:<mean>",
      "lognormal:<mean>:<sigma>",
      "pareto:<mean>:<alpha>",
      "mix:<duration>@<weight>+...",
      "heavytail:<prob>:<mult>:<base>",
  };
  return kTemplates;
}

TimeNs ServiceTime::Sample(Rng& rng) const {
  switch (kind_) {
    case Kind::kFixed:
      return fixed_value_;
    case Kind::kMixture: {
      const double u = rng.NextDouble();
      for (size_t i = 0; i < cumulative_.size(); ++i) {
        if (u < cumulative_[i]) {
          return values_[i];
        }
      }
      return values_.back();
    }
    case Kind::kExponential: {
      const auto v = static_cast<TimeNs>(rng.NextExponential(static_cast<double>(mean_)));
      return v > 0 ? v : 1;
    }
    case Kind::kLognormal: {
      const auto v =
          static_cast<TimeNs>(rng.NextLognormalWithMean(static_cast<double>(mean_), sigma_));
      return v > 0 ? v : 1;
    }
    case Kind::kPareto: {
      // Inverse CDF with u in (0, 1]; the scale puts the mean exactly at
      // mean_. Unbounded above, so clamp before the integer cast.
      const double u = 1.0 - rng.NextDouble();
      const double scale = static_cast<double>(mean_) * (alpha_ - 1.0) / alpha_;
      const double x = scale * std::pow(u, -1.0 / alpha_);
      const auto v = static_cast<TimeNs>(std::min(x, kMaxSampleNs));
      return v > 0 ? v : 1;
    }
    case Kind::kHeavyTail: {
      // Fixed draw count: one base sample plus one Bernoulli, every time.
      const TimeNs base = base_->Sample(rng);
      const bool inflate = rng.NextDouble() < hv_prob_;
      if (!inflate) {
        return base;
      }
      const double x = static_cast<double>(base) * hv_mult_;
      const auto v = static_cast<TimeNs>(std::min(x, kMaxSampleNs));
      return v > 0 ? v : 1;
    }
  }
  return 0;
}

TimeNs ServiceTime::Mean() const {
  switch (kind_) {
    case Kind::kFixed:
      return fixed_value_;
    case Kind::kMixture: {
      double mean = 0.0;
      double prev = 0.0;
      for (size_t i = 0; i < values_.size(); ++i) {
        mean += static_cast<double>(values_[i]) * (cumulative_[i] - prev);
        prev = cumulative_[i];
      }
      return static_cast<TimeNs>(mean);
    }
    case Kind::kExponential:
    case Kind::kLognormal:
    case Kind::kPareto:
      return mean_;
    case Kind::kHeavyTail: {
      const double mean =
          static_cast<double>(base_->Mean()) * (1.0 + hv_prob_ * (hv_mult_ - 1.0));
      return static_cast<TimeNs>(std::min(mean, kMaxSampleNs));
    }
  }
  return 0;
}

}  // namespace draconis::workload
