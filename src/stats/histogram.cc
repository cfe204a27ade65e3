#include "stats/histogram.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/check.h"

namespace draconis::stats {

Histogram::Histogram() = default;

size_t Histogram::BucketIndex(TimeNs value) {
  DRACONIS_CHECK_MSG(value >= 0, "histogram values must be non-negative");
  const auto v = static_cast<uint64_t>(value);
  if (v < kSubBuckets) {
    return static_cast<size_t>(v);
  }
  // Octave = position of the highest set bit above the sub-bucket range.
  const int high_bit = 63 - std::countl_zero(v);
  const int octave = high_bit - kSubBucketBits + 1;
  const uint64_t sub = v >> octave;  // in [kSubBuckets/2 .. kSubBuckets)
  return static_cast<size_t>(octave) * (kSubBuckets / 2) + static_cast<size_t>(sub);
}

TimeNs Histogram::BucketUpperBound(size_t index) {
  if (index < kSubBuckets) {
    return static_cast<TimeNs>(index);
  }
  const size_t octave = (index - kSubBuckets / 2) / (kSubBuckets / 2);
  const size_t sub = index - octave * (kSubBuckets / 2);
  return static_cast<TimeNs>(((sub + 1) << octave) - 1);
}

void Histogram::Record(TimeNs value) { RecordN(value, 1); }

void Histogram::RecordN(TimeNs value, uint64_t n) {
  if (n == 0) {
    return;
  }
  const size_t index = BucketIndex(value);
  if (index >= buckets_.size()) {
    buckets_.resize(index + 1, 0);
  }
  buckets_[index] += n;
  if (count_ == 0 || value < min_) {
    min_ = value;
  }
  if (count_ == 0 || value > max_) {
    max_ = value;
  }
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  if (count_ == 0 || other.max_ > max_) {
    max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

TimeNs Histogram::min() const { return count_ == 0 ? 0 : min_; }

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

uint64_t Histogram::Rank(double q, uint64_t count) {
  return static_cast<uint64_t>(q * static_cast<double>(count - 1)) + 1;
}

TimeNs Histogram::Percentile(double q) const {
  DRACONIS_CHECK(q >= 0.0 && q <= 1.0);
  if (count_ == 0) {
    return 0;
  }
  const uint64_t target = Rank(q, count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

std::vector<CdfPoint> Histogram::Cdf() const {
  std::vector<CdfPoint> points;
  if (count_ == 0) {
    return points;
  }
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    cumulative += buckets_[i];
    points.push_back(
        {std::min(BucketUpperBound(i), max_),
         static_cast<double>(cumulative) / static_cast<double>(count_)});
  }
  return points;
}

std::string Histogram::Summary() const {
  std::ostringstream os;
  os << "n=" << count_;
  if (count_ > 0) {
    os << " mean=" << FormatDuration(static_cast<TimeNs>(Mean()))
       << " p50=" << FormatDuration(Percentile(0.50))
       << " p99=" << FormatDuration(Percentile(0.99)) << " max=" << FormatDuration(max_);
  }
  return os.str();
}

void Histogram::WriteJson(json::Writer& writer) const {
  writer.BeginObject();
  writer.Key("count").UInt(count_);
  if (count_ > 0) {
    writer.Key("mean_ns").Double(Mean());
    writer.Key("min_ns").Int(min());
    writer.Key("max_ns").Int(max_);
    writer.Key("p50_ns").Int(Percentile(0.50));
    writer.Key("p90_ns").Int(Percentile(0.90));
    writer.Key("p95_ns").Int(Percentile(0.95));
    writer.Key("p99_ns").Int(Percentile(0.99));
    writer.Key("p999_ns").Int(Percentile(0.999));
  }
  writer.EndObject();
}

std::string Histogram::ToJson() const {
  json::Writer writer;
  WriteJson(writer);
  return writer.str();
}

void Histogram::Reset() {
  buckets_.clear();
  count_ = 0;
  min_ = 0;
  max_ = 0;
  sum_ = 0.0;
}

QuantileCursor::QuantileCursor(double q) : q_(q) { DRACONIS_CHECK(q >= 0.0 && q <= 1.0); }

void QuantileCursor::Record(TimeNs value) {
  histogram_.Record(value);
  const size_t bucket = Histogram::BucketIndex(value);
  if (histogram_.count() == 1) {
    index_ = bucket;
    at_or_below_ = 1;
    return;
  }
  if (bucket <= index_) {
    ++at_or_below_;
  }
  // Percentile(q) is the first bucket whose cumulative count reaches the
  // rank: climb while this one falls short, descend while the one below
  // already reaches it.
  const std::vector<uint64_t>& buckets = histogram_.buckets_;
  const uint64_t rank = Histogram::Rank(q_, histogram_.count());
  while (at_or_below_ < rank) {
    at_or_below_ += buckets[++index_];
  }
  while (at_or_below_ - buckets[index_] >= rank) {
    at_or_below_ -= buckets[index_--];
  }
}

TimeNs QuantileCursor::Value() const {
  if (histogram_.count() == 0) {
    return 0;
  }
  return std::min(Histogram::BucketUpperBound(index_), histogram_.max());
}

}  // namespace draconis::stats
