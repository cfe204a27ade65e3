#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "workload/service_time.h"
#include "workload/workload.h"

namespace draconis::workload {
namespace {

WorkloadSpec MakeSpec(ArrivalKind arrival) {
  WorkloadSpec spec;
  spec.arrival = arrival;
  return spec;
}

// FNV-1a over every field a scheduler sees: (at, task count, duration, tprops).
uint64_t StreamDigest(const JobStream& stream) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const JobArrival& job : stream) {
    mix(static_cast<uint64_t>(job.at));
    mix(job.tasks.size());
    for (const TaskSpec& task : job.tasks) {
      mix(static_cast<uint64_t>(task.duration));
      mix(task.tprops);
    }
  }
  return h;
}

// --- ServiceTime -------------------------------------------------------------

TEST(ServiceTimeTest, FixedAlwaysSame) {
  ServiceTime st = ServiceTime::Fixed(FromMicros(250));
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(st.Sample(rng), FromMicros(250));
  }
  EXPECT_EQ(st.Mean(), FromMicros(250));
}

TEST(ServiceTimeTest, BimodalHitsBothModes) {
  ServiceTime st = ServiceTime::PaperBimodal();
  Rng rng(2);
  std::map<TimeNs, int> counts;
  for (int i = 0; i < 10000; ++i) {
    counts[st.Sample(rng)]++;
  }
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_NEAR(counts[FromMicros(100)], 5000, 300);
  EXPECT_NEAR(counts[FromMicros(500)], 5000, 300);
  EXPECT_EQ(st.Mean(), FromMicros(300));
}

TEST(ServiceTimeTest, TrimodalEvenThirds) {
  ServiceTime st = ServiceTime::PaperTrimodal();
  Rng rng(3);
  std::map<TimeNs, int> counts;
  for (int i = 0; i < 30000; ++i) {
    counts[st.Sample(rng)]++;
  }
  ASSERT_EQ(counts.size(), 3u);
  for (auto& [value, n] : counts) {
    EXPECT_NEAR(n, 10000, 600) << FormatDuration(value);
  }
}

TEST(ServiceTimeTest, ExponentialMeanMatches) {
  ServiceTime st = ServiceTime::PaperExponential();
  Rng rng(4);
  double sum = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const TimeNs v = st.Sample(rng);
    ASSERT_GT(v, 0);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / kN, static_cast<double>(FromMicros(250)), FromMicros(3));
}

TEST(ServiceTimeTest, LognormalMeanMatches) {
  ServiceTime st = ServiceTime::Lognormal(FromMicros(500), 1.2);
  Rng rng(5);
  double sum = 0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) {
    sum += static_cast<double>(st.Sample(rng));
  }
  EXPECT_NEAR(sum / kN, static_cast<double>(FromMicros(500)), FromMicros(15));
}

TEST(ServiceTimeTest, LabelsAreInformative) {
  EXPECT_NE(ServiceTime::PaperBimodal().label().find("bimodal"), std::string::npos);
  EXPECT_NE(ServiceTime::Fixed(FromMicros(100)).label().find("fixed"), std::string::npos);
}

// --- Open-loop generator -------------------------------------------------------

TEST(OpenLoopTest, RateIsRespected) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kOpenLoop);
  spec.tasks_per_second = 200000.0;
  spec.duration = FromMillis(500);
  spec.seed = 6;
  JobStream stream = spec.Generate();
  const double rate = static_cast<double>(TotalTasks(stream)) / ToSeconds(spec.duration);
  EXPECT_NEAR(rate, 200000.0, 6000.0);
}

TEST(OpenLoopTest, ArrivalsSortedWithinDuration) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kOpenLoop);
  spec.duration = FromMillis(50);
  JobStream stream = spec.Generate();
  ASSERT_FALSE(stream.empty());
  TimeNs prev = 0;
  for (const JobArrival& job : stream) {
    EXPECT_GE(job.at, prev);
    EXPECT_LT(job.at, spec.duration);
    prev = job.at;
  }
}

TEST(OpenLoopTest, BatchedJobs) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kOpenLoop);
  spec.tasks_per_job = 10;
  spec.duration = FromMillis(20);
  JobStream stream = spec.Generate();
  for (const JobArrival& job : stream) {
    EXPECT_EQ(job.tasks.size(), 10u);
  }
}

TEST(OpenLoopTest, Deterministic) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kOpenLoop);
  spec.seed = 77;
  spec.duration = FromMillis(10);
  EXPECT_EQ(StreamDigest(spec.Generate()), StreamDigest(spec.Generate()));
}

TEST(OpenLoopTest, TotalWorkMatchesMeanService) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kOpenLoop);
  spec.tasks_per_second = 100000.0;
  spec.duration = FromMillis(200);
  spec.service = ServiceTime::Fixed(FromMicros(100));
  JobStream stream = spec.Generate();
  EXPECT_EQ(TotalWork(stream),
            static_cast<TimeNs>(TotalTasks(stream)) * FromMicros(100));
}

// --- Taggers -------------------------------------------------------------------

TEST(TaggerTest, LocalityCoversAllNodesRoughlyEvenly) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kOpenLoop);
  spec.duration = FromMillis(200);
  spec.tasks_per_second = 100000.0;
  JobStream stream = spec.Generate();
  TaggerStage::Locality(10, 9).Apply(stream);
  std::map<uint32_t, int> counts;
  for (const auto& job : stream) {
    for (const auto& task : job.tasks) {
      ASSERT_LT(task.tprops, 10u);
      counts[task.tprops]++;
    }
  }
  EXPECT_EQ(counts.size(), 10u);
  const double expected = static_cast<double>(TotalTasks(stream)) / 10;
  for (auto& [node, n] : counts) {
    EXPECT_NEAR(n, expected, expected * 0.15);
  }
}

TEST(TaggerTest, DeadlineSaturatesAtTheTpropsWidth) {
  JobStream stream = {{0, {TaskSpec{FromMillis(1)}}}};
  TaggerStage::Deadline(/*slack=*/1e30, /*jitter_us=*/200, 1).Apply(stream);
  EXPECT_EQ(stream[0].tasks[0].tprops, UINT32_MAX);
}

TEST(TaggerTest, PriorityMixMatchesFractions) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kOpenLoop);
  spec.duration = FromMillis(400);
  spec.tasks_per_second = 100000.0;
  JobStream stream = spec.Generate();
  TaggerStage::Priority(PaperPriorityMix(), 4).Apply(stream);
  std::map<uint32_t, double> counts;
  for (const auto& job : stream) {
    for (const auto& task : job.tasks) {
      counts[task.tprops]++;
    }
  }
  const double total = static_cast<double>(TotalTasks(stream));
  // The paper's 12->4 mapping: 1.2% / 1.7% / 64.6% / 32.2%.
  EXPECT_NEAR(counts[1] / total, 0.012, 0.004);
  EXPECT_NEAR(counts[2] / total, 0.017, 0.004);
  EXPECT_NEAR(counts[3] / total, 0.646, 0.02);
  EXPECT_NEAR(counts[4] / total, 0.322, 0.02);
}

// --- Resource phases -------------------------------------------------------------

TEST(ResourcePhasesTest, ThreePhasesWithEscalatingBits) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kPhased);
  spec.phase_duration = FromMillis(100);
  spec.tasks_per_second = 50000.0;
  spec.service = ServiceTime::Fixed(FromMillis(10));
  JobStream stream = spec.Generate();
  ASSERT_FALSE(stream.empty());
  for (const JobArrival& job : stream) {
    const auto phase = static_cast<uint32_t>(job.at / spec.phase_duration);
    ASSERT_LT(phase, 3u);
    EXPECT_EQ(job.tasks.at(0).tprops, 1u << phase);
  }
  EXPECT_LT(stream.back().at, 3 * spec.phase_duration);
}

// --- Google-like trace -------------------------------------------------------------

TEST(GoogleTraceTest, MeanRateAndDuration) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kGoogleTrace);
  spec.duration = FromSeconds(1);
  spec.tasks_per_second = 100000.0;
  spec.seed = 12;
  JobStream stream = spec.Generate();
  const double rate = static_cast<double>(TotalTasks(stream)) / 1.0;
  EXPECT_NEAR(rate, 100000.0, 15000.0);
}

TEST(GoogleTraceTest, TaskDurationsAverageToTarget) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kGoogleTrace);
  spec.duration = FromSeconds(1);
  spec.tasks_per_second = 100000.0;
  spec.mean_task_duration = FromMicros(500);
  spec.seed = 13;
  JobStream stream = spec.Generate();
  const double mean =
      static_cast<double>(TotalWork(stream)) / static_cast<double>(TotalTasks(stream));
  EXPECT_NEAR(mean, static_cast<double>(FromMicros(500)), FromMicros(40));
}

TEST(GoogleTraceTest, IsBursty) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kGoogleTrace);
  spec.duration = FromSeconds(1);
  spec.tasks_per_second = 100000.0;
  spec.max_job_size = 300;
  spec.seed = 14;
  JobStream stream = spec.Generate();
  size_t biggest = 0;
  for (const auto& job : stream) {
    biggest = std::max(biggest, job.tasks.size());
  }
  // "may submit hundreds of tasks at once"
  EXPECT_GE(biggest, 100u);
  EXPECT_LE(biggest, 300u);
}

TEST(GoogleTraceTest, PriorityTaggingOptional) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kGoogleTrace);
  spec.tasks_per_second = 200000.0;
  spec.duration = FromMillis(200);
  spec.priority_levels = 4;
  spec.seed = 15;
  JobStream stream = spec.Generate();
  for (const auto& job : stream) {
    for (const auto& task : job.tasks) {
      ASSERT_GE(task.tprops, 1u);
      ASSERT_LE(task.tprops, 4u);
    }
  }
}

// --- Heavy-tailed service times ------------------------------------------------

TEST(ServiceTimeTest, ParetoMeanMatchesWhenVarianceIsFinite) {
  // alpha = 2.5 keeps the variance finite so the sample mean converges at a
  // testable rate; the heavy alpha = 1.3 regime is covered by the tail-index
  // test below (its sample mean converges far too slowly to pin).
  ServiceTime st = ServiceTime::Pareto(FromMicros(250), 2.5);
  EXPECT_EQ(st.Mean(), FromMicros(250));
  Rng rng(21);
  double sum = 0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) {
    const TimeNs v = st.Sample(rng);
    ASSERT_GT(v, 0);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / kN, static_cast<double>(FromMicros(250)), FromMicros(10));
}

TEST(ServiceTimeTest, ParetoTailIndexMatchesAlpha) {
  // For Pareto, Q(0.99) / Q(0.90) = 10^(1/alpha) exactly — a quantile-ratio
  // estimate of the tail index that stays stable where the sample mean does
  // not. alpha = 1.3 gives 10^(1/1.3) ~= 5.88.
  ServiceTime st = ServiceTime::Pareto(FromMicros(250), 1.3);
  Rng rng(22);
  constexpr int kN = 400000;
  std::vector<double> samples(kN);
  for (int i = 0; i < kN; ++i) {
    samples[i] = static_cast<double>(st.Sample(rng));
  }
  std::sort(samples.begin(), samples.end());
  const double q90 = samples[static_cast<size_t>(kN * 0.90)];
  const double q99 = samples[static_cast<size_t>(kN * 0.99)];
  const double expected = std::pow(10.0, 1.0 / 1.3);
  EXPECT_NEAR(q99 / q90, expected, expected * 0.15);
}

TEST(ServiceTimeTest, HeavyTailInflatesTheRightFraction) {
  ServiceTime st = ServiceTime::HeavyTail(ServiceTime::Fixed(FromMicros(100)), 0.01, 10.0);
  // Mean folds in the inflated mass: 100us * (1 + 0.01 * (10 - 1)) = 109us.
  EXPECT_EQ(st.Mean(), FromMicros(109));
  Rng rng(23);
  int inflated = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const TimeNs v = st.Sample(rng);
    if (v == FromMillis(1)) {
      ++inflated;
    } else {
      ASSERT_EQ(v, FromMicros(100));
    }
  }
  EXPECT_NEAR(static_cast<double>(inflated) / kN, 0.01, 0.002);
}

TEST(ServiceTimeTest, NamesRoundTripThroughFromName) {
  const std::vector<ServiceTime> models = {
      ServiceTime::Fixed(FromMicros(500)),
      ServiceTime::PaperBimodal(),
      ServiceTime::PaperTrimodal(),
      ServiceTime::PaperExponential(),
      ServiceTime::Lognormal(FromMicros(500), 1.2),
      ServiceTime::Pareto(FromMicros(250), 1.3),
      ServiceTime::HeavyTail(ServiceTime::PaperBimodal(), 0.01, 10.0),
  };
  for (const ServiceTime& model : models) {
    SCOPED_TRACE(model.Name());
    ServiceTime parsed = ServiceTime::Fixed(1);
    std::string error;
    ASSERT_TRUE(ServiceTime::FromName(model.Name(), &parsed, &error)) << error;
    EXPECT_EQ(parsed.Name(), model.Name());
    EXPECT_EQ(parsed.Mean(), model.Mean());
    // Same seed, same draws: the parsed model is the same distribution.
    Rng a(31), b(31);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(model.Sample(a), parsed.Sample(b));
    }
  }
}

TEST(ServiceTimeTest, FromNameRejectsMalformedNames) {
  ServiceTime out = ServiceTime::Fixed(1);
  std::string error;
  EXPECT_FALSE(ServiceTime::FromName("pareto:250us:0.9", &out, &error));  // alpha <= 1
  EXPECT_FALSE(ServiceTime::FromName("heavytail:2:10:bimodal", &out, &error));  // prob > 1
  EXPECT_FALSE(ServiceTime::FromName("nonsense", &out, &error));
  EXPECT_FALSE(error.empty());
}

// --- Declarative workload specs ------------------------------------------------

TEST(WorkloadSpecTest, GenerateIsDeterministic) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kOpenLoop);
  spec.tasks_per_second = 150000.0;
  spec.duration = FromMillis(20);
  spec.tasks_per_job = 10;
  spec.service = ServiceTime::PaperBimodal();
  spec.seed = 91;
  spec.taggers.push_back(TaggerStage::Locality(10, 17));
  EXPECT_EQ(StreamDigest(spec.Generate()), StreamDigest(spec.Generate()));
}

TEST(WorkloadSpecTest, PinnedStreamDigests) {
  // One pin per arrival kind and per tagger stage. Every RNG draw of every
  // engine is covered, so a reordered draw, a changed default or any
  // non-determinism shows up as a changed digest; the run-level goldens in
  // determinism_test ride on it.
  WorkloadSpec open_loop = MakeSpec(ArrivalKind::kOpenLoop);
  open_loop.tasks_per_second = 120000.0;
  open_loop.duration = FromMillis(20);
  open_loop.tasks_per_job = 4;
  open_loop.service =
      ServiceTime::HeavyTail(ServiceTime::Pareto(FromMicros(250), 1.3), 0.01, 10.0);
  open_loop.seed = 42;

  WorkloadSpec phased = MakeSpec(ArrivalKind::kPhased);
  phased.tasks_per_second = 50000.0;
  phased.phase_duration = FromMillis(10);
  phased.service = ServiceTime::PaperBimodal();
  phased.seed = 43;

  WorkloadSpec google = MakeSpec(ArrivalKind::kGoogleTrace);
  google.tasks_per_second = 200000.0;
  google.duration = FromMillis(50);
  google.priority_levels = 4;
  google.seed = 44;

  const auto tagged = [&open_loop](TaggerStage stage) {
    WorkloadSpec spec = open_loop;
    spec.taggers.push_back(std::move(stage));
    return spec;
  };

  struct Pin {
    const char* name;
    WorkloadSpec spec;
    size_t jobs;
    uint64_t digest;
  };
  const Pin pins[] = {
      {"open-loop", open_loop, 620, 11810935375034292359ull},
      {"phased", phased, 1510, 15369954976551593335ull},
      {"google-trace", google, 3686, 16013688570277805789ull},
      {"locality", tagged(TaggerStage::Locality(10, 17)), 620, 12316512750015571661ull},
      {"priority", tagged(TaggerStage::Priority(PaperPriorityMix(), 18)), 620,
       10430874573680249627ull},
      {"deadline", tagged(TaggerStage::Deadline(3.0, 200, 19)), 620,
       16530968486327169244ull},
      {"tenant", tagged(TaggerStage::Tenant(3, 20)), 620, 8274876523390906767ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const JobStream stream = pin.spec.Generate();
    EXPECT_EQ(stream.size(), pin.jobs);
    EXPECT_EQ(StreamDigest(stream), pin.digest);
  }
}

TEST(WorkloadSpecTest, JsonRoundTripReproducesTheSpec) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kGoogleTrace);
  spec.tasks_per_second = 240000.0;
  spec.duration = FromMillis(80);
  spec.mean_task_duration = FromMicros(500);
  spec.duration_sigma = 1.2;
  spec.burst_alpha = 1.3;
  spec.max_job_size = 400;
  spec.priority_levels = 4;
  spec.seed = 7;
  spec.taggers.push_back(TaggerStage::Deadline(3.0, 200, 11));
  spec.taggers.push_back(TaggerStage::Tenant(2, 12));

  const std::string text = spec.ToJson();
  json::Value value;
  std::string error;
  ASSERT_TRUE(json::Parse(text, &value, &error)) << error;
  WorkloadSpec parsed;
  ASSERT_TRUE(WorkloadSpec::FromJson(value, &parsed, &error)) << error;
  EXPECT_EQ(parsed.ToJson(), text);
  EXPECT_EQ(StreamDigest(parsed.Generate()), StreamDigest(spec.Generate()));
}

TEST(WorkloadSpecTest, OpenLoopJsonRoundTripKeepsServiceModel) {
  WorkloadSpec spec = MakeSpec(ArrivalKind::kOpenLoop);
  spec.service = ServiceTime::HeavyTail(ServiceTime::Pareto(FromMicros(250), 1.3),
                                        0.01, 10.0);
  spec.duration = FromMillis(10);
  spec.taggers.push_back(TaggerStage::Locality(9, 23));

  const std::string text = spec.ToJson();
  json::Value value;
  std::string error;
  ASSERT_TRUE(json::Parse(text, &value, &error)) << error;
  WorkloadSpec parsed;
  ASSERT_TRUE(WorkloadSpec::FromJson(value, &parsed, &error)) << error;
  EXPECT_EQ(parsed.service.Name(), spec.service.Name());
  EXPECT_EQ(parsed.ToJson(), text);
}

TEST(WorkloadSpecTest, FromJsonRefusesIntegersTheFieldCannotHold) {
  // A wrapped negative count would pass Validate() and then overflow in
  // Generate(), so FromJson must refuse it, as every out-of-range integer.
  for (const char* text : {
           R"({"arrival": "open-loop", "tasks_per_job": -1})",
           R"({"arrival": "open-loop", "duration_ns": 1e30})",
           R"({"arrival": "open-loop", "duration_ns": 2.5})",
           R"({"arrival": "google-trace", "max_job_size": 4294967296})",
           R"({"arrival": "open-loop", "seed": -3})",
           R"({"arrival": "open-loop",
               "taggers": [{"stage": "locality", "num_nodes": -2, "seed": 1}]})",
           R"({"arrival": "open-loop",
               "taggers": [{"stage": "tenant", "num_tenants": 2, "seed": 0.5}]})",
           R"({"arrival": "open-loop",
               "taggers": [{"stage": "deadline", "slack": 3, "jitter_us": -1, "seed": 1}]})",
       }) {
    json::Value value;
    std::string error;
    ASSERT_TRUE(json::Parse(text, &value, &error)) << text;
    WorkloadSpec parsed;
    EXPECT_FALSE(WorkloadSpec::FromJson(value, &parsed, &error)) << text;
    EXPECT_NE(error.find("integer"), std::string::npos) << text << ": " << error;
  }
}

TEST(WorkloadSpecTest, ValidateCatchesBadSpecs) {
  WorkloadSpec spec;
  EXPECT_EQ(spec.Validate(), "");  // kNone is always valid
  spec.arrival = ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 0.0;
  EXPECT_NE(spec.Validate(), "");
  spec.tasks_per_second = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(spec.Validate(), "");
  spec.tasks_per_second = std::numeric_limits<double>::infinity();
  EXPECT_NE(spec.Validate(), "");
  spec.tasks_per_second = 1000.0;
  EXPECT_EQ(spec.Validate(), "");
  spec.taggers.push_back(TaggerStage::Locality(0, 1));  // zero nodes
  EXPECT_NE(spec.Validate(), "");
  spec.taggers = {TaggerStage::Deadline(std::numeric_limits<double>::infinity(), 200, 1)};
  EXPECT_NE(spec.Validate(), "");
}

}  // namespace
}  // namespace draconis::workload
