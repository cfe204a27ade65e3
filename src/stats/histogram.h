// Latency histogram with HDR-style log-linear buckets.
//
// Values (nanoseconds) are bucketed with a bounded relative error (~1/64 by
// default): each power-of-two range is split into 64 linear sub-buckets.
// This keeps memory tiny, recording O(1), and percentile queries accurate to
// ~1.5 % — plenty for reproducing the paper's latency distributions.

#ifndef DRACONIS_STATS_HISTOGRAM_H_
#define DRACONIS_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/time.h"

namespace draconis::stats {

// A (value, cumulative fraction) point of a CDF.
struct CdfPoint {
  TimeNs value;
  double fraction;
};

class Histogram {
 public:
  Histogram();

  void Record(TimeNs value);
  void RecordN(TimeNs value, uint64_t count);

  // Merges another histogram into this one.
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  TimeNs min() const;
  TimeNs max() const { return max_; }
  double Mean() const;

  // Value at quantile q in [0, 1]; e.g. Percentile(0.99) is the p99.
  // Returns 0 for an empty histogram.
  TimeNs Percentile(double q) const;

  TimeNs Median() const { return Percentile(0.5); }

  // CDF sampled at every non-empty bucket boundary (at most one point per
  // bucket), suitable for plotting.
  std::vector<CdfPoint> Cdf() const;

  // "n=..., mean=..., p50=..., p99=..., max=..." one-line summary.
  std::string Summary() const;

  // Structured summary — count, mean, min/max and the standard quantiles —
  // written as one JSON object (the sweep report layer's histogram schema).
  void WriteJson(json::Writer& writer) const;
  std::string ToJson() const;

  void Reset();

 private:
  friend class QuantileCursor;

  static constexpr int kSubBucketBits = 6;  // 64 linear sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;

  static size_t BucketIndex(TimeNs value);
  static TimeNs BucketUpperBound(size_t index);
  // The 1-based rank Percentile(q) reports among `count` > 0 samples.
  static uint64_t Rank(double q, uint64_t count);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  TimeNs min_ = 0;
  TimeNs max_ = 0;
  double sum_ = 0.0;
};

// A histogram that keeps Percentile(q) current for one fixed q. A cursor (the
// bucket the quantile falls in, plus the count at or below it) moves with
// each Record, so Value() costs O(1) instead of a scan of every bucket, and
// it always equals histogram().Percentile(q). A plain Histogram tracks no
// quantile and pays nothing for this.
class QuantileCursor {
 public:
  explicit QuantileCursor(double q);

  void Record(TimeNs value);

  // histogram().Percentile(q); 0 while empty.
  TimeNs Value() const;

  uint64_t count() const { return histogram_.count(); }
  const Histogram& histogram() const { return histogram_; }

 private:
  Histogram histogram_;
  double q_;
  size_t index_ = 0;          // the bucket Percentile(q_) falls in
  uint64_t at_or_below_ = 0;  // samples in buckets [0, index_]
};

}  // namespace draconis::stats

#endif  // DRACONIS_STATS_HISTOGRAM_H_
