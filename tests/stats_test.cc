#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "stats/histogram.h"
#include "stats/timeseries.h"

namespace draconis::stats {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_TRUE(h.Cdf().empty());
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(4700);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 4700);
  EXPECT_EQ(h.max(), 4700);
  EXPECT_EQ(h.Percentile(0.0), h.Percentile(1.0));
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (TimeNs v = 0; v < 64; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(1.0), 63);
  EXPECT_EQ(h.Median(), 31);
}

TEST(HistogramTest, PercentileBoundedRelativeError) {
  Histogram h;
  Rng rng(3);
  std::vector<TimeNs> values;
  for (int i = 0; i < 100000; ++i) {
    const auto v = static_cast<TimeNs>(rng.NextExponential(50000.0)) + 1;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const TimeNs exact = values[static_cast<size_t>(q * (values.size() - 1))];
    const TimeNs approx = h.Percentile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * 0.04 + 2)
        << "q=" << q;
  }
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.Record(100);
  h.Record(200);
  h.Record(600);
  EXPECT_DOUBLE_EQ(h.Mean(), 300.0);
}

TEST(HistogramTest, RecordNWeights) {
  Histogram h;
  h.RecordN(10, 99);
  h.RecordN(1000000, 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.Median(), 10);
  EXPECT_EQ(h.max(), 1000000);
}

TEST(HistogramTest, RecordNZeroIsNoOp) {
  Histogram h;
  h.RecordN(10, 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(HistogramTest, NegativeValueThrows) {
  Histogram h;
  EXPECT_THROW(h.Record(-1), draconis::CheckFailure);
}

TEST(HistogramTest, MergeCombinesCountsAndExtremes) {
  Histogram a;
  Histogram b;
  a.Record(10);
  a.Record(20);
  b.Record(5);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 1000);
}

TEST(HistogramTest, MergeEmptyIsNoOp) {
  Histogram a;
  a.Record(42);
  Histogram b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.max(), 42);
}

TEST(HistogramTest, CdfIsMonotonicAndEndsAtOne) {
  Histogram h;
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    h.Record(static_cast<TimeNs>(rng.NextBelow(1000000)));
  }
  const auto cdf = h.Cdf();
  ASSERT_FALSE(cdf.empty());
  double prev = 0.0;
  TimeNs prev_v = -1;
  for (const CdfPoint& p : cdf) {
    EXPECT_GE(p.fraction, prev);
    EXPECT_GT(p.value, prev_v);
    prev = p.fraction;
    prev_v = p.value;
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(HistogramTest, PercentileNeverExceedsMax) {
  Histogram h;
  h.Record(1000003);
  h.Record(17);
  EXPECT_LE(h.Percentile(1.0), 1000003);
  EXPECT_LE(h.Percentile(0.999), 1000003);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(123456);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h;
  h.Record(100);
  EXPECT_NE(h.Summary().find("n=1"), std::string::npos);
}

TEST(HistogramTest, MergeEqualsUnionRecording) {
  // Property: merging two histograms is indistinguishable from recording
  // the union of their samples.
  draconis::Rng rng(21);
  Histogram a;
  Histogram b;
  Histogram combined;
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<TimeNs>(rng.NextExponential(30000.0));
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.Mean(), combined.Mean());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.Percentile(q), combined.Percentile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, RecordNEqualsRepeatedRecord) {
  Histogram weighted;
  Histogram repeated;
  weighted.RecordN(12345, 57);
  for (int i = 0; i < 57; ++i) {
    repeated.Record(12345);
  }
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_EQ(weighted.Percentile(0.5), repeated.Percentile(0.5));
  EXPECT_DOUBLE_EQ(weighted.Mean(), repeated.Mean());
}

TEST(HistogramTest, PercentilesAreMonotonic) {
  Histogram h;
  draconis::Rng rng(22);
  for (int i = 0; i < 50000; ++i) {
    h.Record(static_cast<TimeNs>(rng.NextBelow(100000000)));
  }
  TimeNs prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const TimeNs v = h.Percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(TimeSeriesTest, BucketsByInterval) {
  TimeSeries ts(kSecond);
  ts.Record(FromSeconds(0.5));
  ts.Record(FromSeconds(1.5));
  ts.Record(FromSeconds(1.7));
  EXPECT_EQ(ts.NumBuckets(), 2u);
  EXPECT_DOUBLE_EQ(ts.BucketSum(0), 1.0);
  EXPECT_DOUBLE_EQ(ts.BucketSum(1), 2.0);
  EXPECT_DOUBLE_EQ(ts.BucketSum(7), 0.0);
}

TEST(TimeSeriesTest, RateDividesByWidth) {
  TimeSeries ts(FromMillis(100));
  for (int i = 0; i < 50; ++i) {
    ts.Record(FromMillis(1) * i, 1.0);
  }
  EXPECT_DOUBLE_EQ(ts.BucketRate(0), 500.0);  // 50 events in 0.1 s
}

TEST(TimeSeriesTest, WeightsAccumulate) {
  TimeSeries ts(kSecond);
  ts.Record(10, 2.5);
  ts.Record(20, 0.5);
  EXPECT_DOUBLE_EQ(ts.BucketSum(0), 3.0);
}

TEST(HistogramTest, ToJsonCarriesTheDigest) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(FromMicros(i));
  }
  const std::string json = h.ToJson();
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  for (const char* key :
       {"mean_ns", "min_ns", "max_ns", "p50_ns", "p90_ns", "p95_ns", "p99_ns", "p999_ns"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"min_ns\": 1000"), std::string::npos);
}

TEST(HistogramTest, EmptyToJsonOmitsPercentiles) {
  Histogram h;
  const std::string json = h.ToJson();
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos);
  EXPECT_EQ(json.find("p99_ns"), std::string::npos);
}

// The cursor is an exact replacement for the bucket scan: after every
// Record it reads what Percentile(q) does, whether the new value lands below
// the cursor, above it, or past the end of the bucket array.
TEST(QuantileCursorTest, EqualsPercentileAfterEveryRecord) {
  for (uint64_t seed = 0; seed < 32; ++seed) {
    for (double q : {0.0, 0.5, 0.95, 0.999, 1.0}) {
      QuantileCursor cursor(q);
      EXPECT_EQ(cursor.Value(), 0);
      Rng rng(seed);
      for (int i = 0; i < 1000; ++i) {
        TimeNs value = 0;
        switch (rng.NextBelow(4)) {
          case 0:  // at or below the cursor's bucket
            value = static_cast<TimeNs>(rng.NextBelow(static_cast<uint64_t>(cursor.Value()) + 1));
            break;
          case 1:  // the body of a latency distribution
            value = static_cast<TimeNs>(rng.NextExponential(50000.0));
            break;
          case 2:  // exact small values and their ties
            value = static_cast<TimeNs>(rng.NextBelow(64));
            break;
          default:  // a new maximum that grows the bucket array
            value = cursor.histogram().max() + 1 +
                    static_cast<TimeNs>(rng.NextBelow(uint64_t{1} << rng.NextBelow(30)));
            break;
        }
        cursor.Record(value);
        ASSERT_EQ(cursor.Value(), cursor.histogram().Percentile(q))
            << "seed " << seed << " q " << q << " after " << i + 1 << " records";
      }
    }
  }
}

}  // namespace
}  // namespace draconis::stats
