// Tests for the supporting tooling: the flag parser and trace file I/O.

#include <gtest/gtest.h>

#include <cstdio>

#include "common/flags.h"
#include "workload/trace_io.h"
#include "workload/workload.h"

namespace draconis {
namespace {

// --- flags -------------------------------------------------------------------

struct FlagsFixture {
  double rate = 1.5;
  int64_t workers = 10;
  bool verbose = false;
  std::string name = "default";
  flags::Parser parser{"test program"};

  FlagsFixture() {
    parser.AddDouble("rate", &rate, "a rate");
    parser.AddInt64("workers", &workers, "worker count");
    parser.AddBool("verbose", &verbose, "chatty output");
    parser.AddString("name", &name, "a label");
  }

  bool Parse(std::vector<const char*> args, std::string* error) {
    args.insert(args.begin(), "prog");
    return parser.Parse(static_cast<int>(args.size()), args.data(), error);
  }
};

TEST(FlagsTest, DefaultsSurviveEmptyArgs) {
  FlagsFixture f;
  std::string error;
  EXPECT_TRUE(f.Parse({}, &error)) << error;
  EXPECT_DOUBLE_EQ(f.rate, 1.5);
  EXPECT_EQ(f.workers, 10);
  EXPECT_FALSE(f.verbose);
  EXPECT_EQ(f.name, "default");
}

TEST(FlagsTest, EqualsForm) {
  FlagsFixture f;
  std::string error;
  ASSERT_TRUE(f.Parse({"--rate=2.75", "--workers=160", "--name=fig5a"}, &error)) << error;
  EXPECT_DOUBLE_EQ(f.rate, 2.75);
  EXPECT_EQ(f.workers, 160);
  EXPECT_EQ(f.name, "fig5a");
}

TEST(FlagsTest, SpaceForm) {
  FlagsFixture f;
  std::string error;
  ASSERT_TRUE(f.Parse({"--workers", "42"}, &error)) << error;
  EXPECT_EQ(f.workers, 42);
}

TEST(FlagsTest, BareBooleanEnables) {
  FlagsFixture f;
  std::string error;
  ASSERT_TRUE(f.Parse({"--verbose"}, &error)) << error;
  EXPECT_TRUE(f.verbose);
}

TEST(FlagsTest, ExplicitBooleanValues) {
  FlagsFixture f;
  std::string error;
  ASSERT_TRUE(f.Parse({"--verbose=true"}, &error));
  EXPECT_TRUE(f.verbose);
  ASSERT_TRUE(f.Parse({"--verbose=false"}, &error));
  EXPECT_FALSE(f.verbose);
}

TEST(FlagsTest, UnknownFlagFails) {
  FlagsFixture f;
  std::string error;
  EXPECT_FALSE(f.Parse({"--nope=1"}, &error));
  EXPECT_NE(error.find("unknown flag"), std::string::npos);
}

TEST(FlagsTest, BadValueFails) {
  FlagsFixture f;
  std::string error;
  EXPECT_FALSE(f.Parse({"--workers=ten"}, &error));
  EXPECT_NE(error.find("bad value"), std::string::npos);
}

TEST(FlagsTest, MissingValueFails) {
  FlagsFixture f;
  std::string error;
  EXPECT_FALSE(f.Parse({"--workers"}, &error));
}

TEST(FlagsTest, HelpShortCircuits) {
  FlagsFixture f;
  std::string error;
  ASSERT_TRUE(f.Parse({"--help"}, &error));
  EXPECT_TRUE(f.parser.help_requested());
  EXPECT_NE(f.parser.Usage().find("--workers"), std::string::npos);
}

struct SweepFlagsFixture {
  TimeNs horizon = FromMillis(40);
  std::string scheduler = "all";
  flags::Parser parser{"sweep flags"};

  SweepFlagsFixture() {
    parser.AddDuration("horizon", &horizon, "measurement horizon");
    parser.AddChoice("scheduler", &scheduler, {"all", "draconis", "r2p2"}, "system filter");
  }

  bool Parse(std::vector<const char*> args, std::string* error) {
    args.insert(args.begin(), "prog");
    return parser.Parse(static_cast<int>(args.size()), args.data(), error);
  }
};

TEST(FlagsTest, DurationAcceptsUnitSuffixes) {
  SweepFlagsFixture f;
  std::string error;
  ASSERT_TRUE(f.Parse({"--horizon=500us"}, &error)) << error;
  EXPECT_EQ(f.horizon, FromMicros(500));
  ASSERT_TRUE(f.Parse({"--horizon", "40ms"}, &error)) << error;
  EXPECT_EQ(f.horizon, FromMillis(40));
  ASSERT_TRUE(f.Parse({"--horizon=1.5s"}, &error)) << error;
  EXPECT_EQ(f.horizon, FromMillis(1500));
}

TEST(FlagsTest, DurationRejectsMissingOrUnknownUnit) {
  SweepFlagsFixture f;
  std::string error;
  EXPECT_FALSE(f.Parse({"--horizon=40"}, &error));
  EXPECT_FALSE(f.Parse({"--horizon=40min"}, &error));
  EXPECT_FALSE(f.Parse({"--horizon=fast"}, &error));
}

TEST(FlagsTest, DurationDefaultAppearsInUsage) {
  SweepFlagsFixture f;
  EXPECT_NE(f.parser.Usage().find("40.00ms"), std::string::npos);
}

TEST(FlagsTest, ChoiceAcceptsListedValue) {
  SweepFlagsFixture f;
  std::string error;
  ASSERT_TRUE(f.Parse({"--scheduler=r2p2"}, &error)) << error;
  EXPECT_EQ(f.scheduler, "r2p2");
}

TEST(FlagsTest, ChoiceRejectsUnlistedValue) {
  SweepFlagsFixture f;
  std::string error;
  EXPECT_FALSE(f.Parse({"--scheduler=sparrow"}, &error));
  EXPECT_NE(error.find("bad value"), std::string::npos);
}

TEST(FlagsTest, ChoiceAlternativesListedInUsage) {
  SweepFlagsFixture f;
  EXPECT_NE(f.parser.Usage().find("[all|draconis|r2p2]"), std::string::npos);
}

// --- trace I/O ----------------------------------------------------------------

TEST(TraceIoTest, RoundTrip) {
  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 50000;
  spec.duration = FromMillis(5);
  spec.tasks_per_job = 3;
  spec.seed = 99;
  workload::JobStream original = spec.Generate();
  original[0].tasks[0].tprops = 7;
  original[0].tasks[1].oversized_param_bytes = 4096;

  const std::string path = ::testing::TempDir() + "/trace_roundtrip.csv";
  ASSERT_TRUE(workload::SaveJobStream(path, original));

  workload::JobStream loaded;
  std::string error;
  ASSERT_TRUE(workload::LoadJobStream(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), original.size());
  for (size_t j = 0; j < original.size(); ++j) {
    EXPECT_EQ(loaded[j].at, original[j].at);
    ASSERT_EQ(loaded[j].tasks.size(), original[j].tasks.size());
    for (size_t t = 0; t < original[j].tasks.size(); ++t) {
      EXPECT_EQ(loaded[j].tasks[t].duration, original[j].tasks[t].duration);
      EXPECT_EQ(loaded[j].tasks[t].tprops, original[j].tasks[t].tprops);
      EXPECT_EQ(loaded[j].tasks[t].oversized_param_bytes,
                original[j].tasks[t].oversized_param_bytes);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, HandAuthoredMinimalColumns) {
  const std::string path = ::testing::TempDir() + "/trace_minimal.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "# comment\n0,1000,100000,2\n0,1000,200000,1\n1,5000,50000,0\n");
  std::fclose(f);

  workload::JobStream stream;
  std::string error;
  ASSERT_TRUE(workload::LoadJobStream(path, &stream, &error)) << error;
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0].at, 1000);
  EXPECT_EQ(stream[0].tasks.size(), 2u);
  EXPECT_EQ(stream[0].tasks[1].duration, 200000);
  EXPECT_EQ(stream[1].tasks[0].tprops, 0u);
  std::remove(path.c_str());
}

TEST(TraceIoTest, RejectsUnsortedArrivals) {
  const std::string path = ::testing::TempDir() + "/trace_unsorted.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "0,5000,100,0\n1,1000,100,0\n");
  std::fclose(f);

  workload::JobStream stream;
  std::string error;
  EXPECT_FALSE(workload::LoadJobStream(path, &stream, &error));
  EXPECT_NE(error.find("not sorted"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileFails) {
  workload::JobStream stream;
  std::string error;
  EXPECT_FALSE(workload::LoadJobStream("/nonexistent/trace.csv", &stream, &error));
}

}  // namespace
}  // namespace draconis
