#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/time.h"

namespace draconis {
namespace {

TEST(TimeTest, UnitConstants) {
  EXPECT_EQ(kMicrosecond, 1000);
  EXPECT_EQ(kMillisecond, 1000 * 1000);
  EXPECT_EQ(kSecond, 1000 * 1000 * 1000);
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(ToMicros(FromMicros(4.7)), 4.7);
  EXPECT_DOUBLE_EQ(ToMillis(FromMillis(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(ToSeconds(FromSeconds(0.25)), 0.25);
  EXPECT_EQ(FromMicros(1.0), kMicrosecond);
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(500), "500ns");
  EXPECT_EQ(FormatDuration(FromMicros(4.7)), "4.70us");
  EXPECT_EQ(FormatDuration(FromMillis(13.3)), "13.30ms");
  EXPECT_EQ(FormatDuration(FromSeconds(2)), "2.000s");
}

TEST(TimeTest, FormatDurationNegative) { EXPECT_EQ(FormatDuration(-1500), "-1.50us"); }

TEST(CheckTest, PassingCheckDoesNothing) { EXPECT_NO_THROW(DRACONIS_CHECK(1 + 1 == 2)); }

TEST(CheckTest, FailingCheckThrowsCheckFailure) {
  EXPECT_THROW(DRACONIS_CHECK(false), CheckFailure);
}

TEST(CheckTest, MessageIsIncluded) {
  try {
    DRACONIS_CHECK_MSG(false, "queue wedged");
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("queue wedged"), std::string::npos);
  }
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(13);
  bool seen[8] = {};
  for (int i = 0; i < 1000; ++i) {
    seen[rng.NextBelow(8)] = true;
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(21);
  bool lo = false;
  bool hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    lo |= v == -3;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(5);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.NextExponential(250.0);
  }
  EXPECT_NEAR(sum / kN, 250.0, 5.0);
}

TEST(RngTest, NormalMoments) {
  Rng rng(6);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.NextNormal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, LognormalMeanMatchesTarget) {
  Rng rng(8);
  double sum = 0.0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.NextLognormalWithMean(500.0, 1.0);
  }
  EXPECT_NEAR(sum / kN, 500.0, 15.0);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(10);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextBoundedPareto(1.0, 300.0, 1.3);
    ASSERT_GE(v, 1.0);
    ASSERT_LE(v, 300.0);
  }
}

TEST(RngTest, BoundedParetoIsSkewed) {
  Rng rng(11);
  int small = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    small += rng.NextBoundedPareto(1.0, 300.0, 1.3) < 10.0 ? 1 : 0;
  }
  // Most mass near the lower bound.
  EXPECT_GT(small, kN * 3 / 4);
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(12);
  int yes = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    yes += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(yes) / kN, 0.25, 0.01);
}

TEST(RngTest, PoissonGapPositiveAndMeanMatches) {
  Rng rng(14);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const TimeNs gap = rng.NextPoissonGap(100000.0);  // mean 10us
    ASSERT_GT(gap, 0);
    sum += static_cast<double>(gap);
  }
  EXPECT_NEAR(sum / kN, 10000.0, 200.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(ParseDurationTest, AcceptsEveryUnit) {
  TimeNs out = 0;
  ASSERT_TRUE(ParseDuration("250ns", &out));
  EXPECT_EQ(out, 250);
  ASSERT_TRUE(ParseDuration("500us", &out));
  EXPECT_EQ(out, FromMicros(500));
  ASSERT_TRUE(ParseDuration("40ms", &out));
  EXPECT_EQ(out, FromMillis(40));
  ASSERT_TRUE(ParseDuration("2s", &out));
  EXPECT_EQ(out, FromSeconds(2));
}

TEST(ParseDurationTest, AcceptsFractionsAndBareZero) {
  TimeNs out = 0;
  ASSERT_TRUE(ParseDuration("1.5s", &out));
  EXPECT_EQ(out, FromMillis(1500));
  ASSERT_TRUE(ParseDuration("0.25ms", &out));
  EXPECT_EQ(out, FromMicros(250));
  ASSERT_TRUE(ParseDuration("0", &out));
  EXPECT_EQ(out, 0);
}

TEST(ParseDurationTest, RejectsMalformedInput) {
  TimeNs out = 0;
  EXPECT_FALSE(ParseDuration("", &out));
  EXPECT_FALSE(ParseDuration("40", &out));       // unit required
  EXPECT_FALSE(ParseDuration("40min", &out));    // unknown unit
  EXPECT_FALSE(ParseDuration("ms", &out));       // no number
  EXPECT_FALSE(ParseDuration("40ms extra", &out));
  EXPECT_FALSE(ParseDuration("-5ms", &out));     // durations are non-negative
}

TEST(ParseDurationTest, RoundTripsFormatDuration) {
  for (TimeNs value : {TimeNs{250}, FromMicros(500), FromMillis(40), FromSeconds(3)}) {
    TimeNs out = 0;
    ASSERT_TRUE(ParseDuration(FormatDuration(value), &out)) << FormatDuration(value);
    EXPECT_EQ(out, value);
  }
}

TEST(JsonWriterTest, NestedDocument) {
  json::Writer w;
  w.BeginObject();
  w.Key("name").String("fig05a");
  w.Key("n").Int(-3);
  w.Key("u").UInt(7);
  w.Key("ok").Bool(true);
  w.Key("nothing").Null();
  w.Key("xs").BeginArray();
  w.Double(0.5);
  w.Double(1000);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\n  \"name\": \"fig05a\",\n  \"n\": -3,\n  \"u\": 7,\n  \"ok\": true,\n"
            "  \"nothing\": null,\n  \"xs\": [\n    0.5,\n    1000\n  ]\n}");
}

TEST(JsonWriterTest, EscapesStrings) {
  json::Writer w;
  w.BeginObject();
  w.Key("s").String("a\"b\\c\nd\te");
  w.EndObject();
  EXPECT_NE(w.str().find(R"(a\"b\\c\nd\te)"), std::string::npos);
}

TEST(JsonWriterTest, DoubleFormattingRoundTrips) {
  // Shortest representation that parses back to the same bits.
  EXPECT_EQ(json::Writer::FormatDouble(0.1), "0.1");
  EXPECT_EQ(json::Writer::FormatDouble(1.0 / 3.0), "0.33333333333333331");
  EXPECT_EQ(json::Writer::FormatDouble(1e21), "1e+21");
  EXPECT_EQ(json::Writer::FormatDouble(42.0), "42");
}

// ---------------------------------------------------------------------------
// json::Parse (the reader side, used by fault plans)
// ---------------------------------------------------------------------------

TEST(JsonParseTest, ParsesEveryValueType) {
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(
      R"({"s": "hi\n", "i": -42, "d": 2.5, "t": true, "f": false, "n": null,
          "a": [1, 2, 3], "o": {"nested": "yes"}})",
      &doc, &error))
      << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("s")->AsString(), "hi\n");
  EXPECT_EQ(doc.Find("i")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(doc.Find("d")->AsDouble(), 2.5);
  EXPECT_TRUE(doc.Find("t")->AsBool());
  EXPECT_FALSE(doc.Find("f")->AsBool());
  EXPECT_TRUE(doc.Find("n")->is_null());
  ASSERT_TRUE(doc.Find("a")->is_array());
  ASSERT_EQ(doc.Find("a")->AsArray().size(), 3u);
  EXPECT_EQ(doc.Find("a")->AsArray()[2].AsInt(), 3);
  EXPECT_EQ(doc.Find("o")->Find("nested")->AsString(), "yes");
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonParseTest, KeysPreserveDocumentOrder) {
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(R"({"z": 1, "a": 2, "m": 3})", &doc, &error)) << error;
  EXPECT_EQ(doc.Keys(), (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonParseTest, AsIntRefusesFractionsAndOutOfRangeNumbers) {
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(
      R"({"frac": 2.5, "huge": 1e30, "neg": -1, "u32max": 4294967295, "s": "7"})", &doc,
      &error))
      << error;
  EXPECT_EQ(doc.Find("frac")->AsInt(), std::nullopt);
  EXPECT_EQ(doc.Find("huge")->AsInt(), std::nullopt);
  EXPECT_EQ(doc.Find("huge")->AsInt<uint64_t>(), std::nullopt);
  EXPECT_EQ(doc.Find("neg")->AsInt(), -1);
  EXPECT_EQ(doc.Find("neg")->AsInt<uint32_t>(), std::nullopt);
  EXPECT_EQ(doc.Find("u32max")->AsInt<uint32_t>(), 4294967295u);
  EXPECT_EQ(doc.Find("u32max")->AsInt<int32_t>(), std::nullopt);
  EXPECT_EQ(doc.Find("s")->AsInt(), std::nullopt);  // not a number
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  json::Writer w;
  w.BeginObject();
  w.Key("name").String("plan \"x\"\n");
  w.Key("count").Int(7);
  w.Key("ratio").Double(0.125);
  w.Key("items").BeginArray();
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.EndObject();

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(w.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.Find("name")->AsString(), "plan \"x\"\n");
  EXPECT_EQ(doc.Find("count")->AsInt(), 7);
  EXPECT_DOUBLE_EQ(doc.Find("ratio")->AsDouble(), 0.125);
  ASSERT_EQ(doc.Find("items")->AsArray().size(), 2u);
  EXPECT_TRUE(doc.Find("items")->AsArray()[0].AsBool());
  EXPECT_TRUE(doc.Find("items")->AsArray()[1].is_null());
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  for (const char* bad : {
           "",                       // empty input
           "{",                      // unterminated object
           "[1, 2",                  // unterminated array
           "{\"a\" 1}",              // missing colon
           "{\"a\": 1,}",            // trailing comma
           "\"unterminated",         // unterminated string
           "{\"a\": 1e}",            // malformed number
           "tru",                    // truncated literal
           "{\"a\": 1} extra",       // trailing garbage
       }) {
    json::Value doc;
    std::string error;
    EXPECT_FALSE(json::Parse(bad, &doc, &error)) << "input: " << bad;
    EXPECT_FALSE(error.empty()) << "input: " << bad;
  }
}

TEST(JsonParseTest, ErrorsCarryLineNumbers) {
  json::Value doc;
  std::string error;
  ASSERT_FALSE(json::Parse("{\n  \"a\": 1,\n  oops\n}", &doc, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

}  // namespace
}  // namespace draconis
