// Tests for the sweep engine: result ordering, error propagation, the
// parallel == serial bit-identity guarantee on a fig05a-shaped sweep, and
// the JSON report (golden output).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sweep/report.h"
#include "sweep/sweep.h"
#include "workload/workload.h"

namespace draconis::sweep {
namespace {

using cluster::ExperimentConfig;
using cluster::ExperimentResult;
using cluster::SchedulerKind;

// A spec whose runner never touches the simulator: each point's result
// encodes its own seed so ordering is observable.
SweepSpec StubSpec(size_t num_points) {
  SweepSpec spec;
  spec.name = "stub";
  spec.title = "stub sweep";
  spec.axis = {"index", "n"};
  for (size_t i = 0; i < num_points; ++i) {
    SweepPoint point;
    point.label = "point-" + std::to_string(i);
    point.series = "stub";
    point.x = static_cast<double>(i);
    point.config.seed = i;
    spec.points.push_back(std::move(point));
  }
  spec.run = [](const ExperimentConfig& config) {
    ExperimentResult result;
    result.throughput_tps = static_cast<double>(config.seed) * 10.0;
    return result;
  };
  return spec;
}

TEST(SweepTest, EffectiveParallelismResolvesZeroToHardware) {
  EXPECT_GE(EffectiveParallelism(0, 100), 1u);
  EXPECT_EQ(EffectiveParallelism(1, 100), 1u);
  EXPECT_EQ(EffectiveParallelism(3, 100), 3u);
  // Never more workers than points.
  EXPECT_EQ(EffectiveParallelism(8, 2), 2u);
}

TEST(SweepTest, ResultsComeBackInPointOrder) {
  const SweepSpec spec = StubSpec(16);
  SweepOptions options;
  options.parallelism = 4;
  const std::vector<SweepPointResult> results = RunSweep(spec, options);
  ASSERT_EQ(results.size(), 16u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].label, "point-" + std::to_string(i));
    EXPECT_DOUBLE_EQ(results[i].x, static_cast<double>(i));
    EXPECT_DOUBLE_EQ(results[i].result.throughput_tps, static_cast<double>(i) * 10.0);
  }
}

TEST(SweepTest, ProgressReportsEveryPointExactlyOnce) {
  const SweepSpec spec = StubSpec(9);
  SweepOptions options;
  options.parallelism = 3;
  std::vector<bool> seen(9, false);
  size_t calls = 0;
  options.on_progress = [&](size_t completed, size_t total, const SweepPointResult& done) {
    ++calls;
    EXPECT_EQ(total, 9u);
    EXPECT_EQ(completed, calls);  // progress callbacks are serialized
    ASSERT_LT(done.index, seen.size());
    EXPECT_FALSE(seen[done.index]);
    seen[done.index] = true;
  };
  RunSweep(spec, options);
  EXPECT_EQ(calls, 9u);
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(SweepTest, ThrowingPointPropagatesEarliestError) {
  SweepSpec spec = StubSpec(8);
  spec.run = [](const ExperimentConfig& config) -> ExperimentResult {
    if (config.seed == 2 || config.seed == 5) {
      throw std::runtime_error("boom " + std::to_string(config.seed));
    }
    return {};
  };
  SweepOptions options;
  options.parallelism = 4;
  try {
    RunSweep(spec, options);
    FAIL() << "expected RunSweep to rethrow the point's exception";
  } catch (const std::runtime_error& e) {
    // Point 2 is in the first dispatch wave, so it always runs; the earliest
    // failing index wins even if point 5 also threw.
    EXPECT_STREQ(e.what(), "boom 2");
  }
}

TEST(SweepTest, ThrowingPointStopsDispatchingNewPoints) {
  SweepSpec spec = StubSpec(64);
  std::atomic<size_t> started{0};
  spec.run = [&started](const ExperimentConfig& config) -> ExperimentResult {
    started.fetch_add(1);
    if (config.seed == 0) {
      throw std::runtime_error("first point fails");
    }
    // Give the failing point (always dispatched first) time to stop the
    // cursor; without this a fast worker could drain the whole spec before
    // the throw lands.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return {};
  };
  SweepOptions options;
  options.parallelism = 2;
  EXPECT_THROW(RunSweep(spec, options), std::runtime_error);
  // The failure surfaced before the whole sweep was dispatched (in-flight
  // points finish, but no new ones start).
  EXPECT_LT(started.load(), 64u);
}

// The tentpole guarantee: a parallel run of real experiments is
// bit-identical to the serial run, point by point. Shaped like fig05a
// (multiple schedulers x offered loads on the paper testbed), scaled down in
// horizon so the test stays fast.
TEST(SweepTest, ParallelMatchesSerialBitForBit) {
  const workload::ServiceTime service = workload::ServiceTime::Fixed(FromMicros(500));
  SweepSpec spec;
  spec.name = "fig05a-shaped";
  spec.title = "bit-identity check";
  spec.axis = {"offered load", "ktasks/s"};
  const SchedulerKind kinds[] = {SchedulerKind::kDraconis, SchedulerKind::kR2P2};
  const double loads_ktps[] = {60, 140, 240};
  for (SchedulerKind kind : kinds) {
    for (double load : loads_ktps) {
      SweepPoint point;
      point.label = std::string(cluster::SchedulerKindName(kind)) + "@" +
                    std::to_string(static_cast<int>(load)) + "k";
      point.series = cluster::SchedulerKindName(kind);
      point.x = load;
      ExperimentConfig config;
      config.scheduler = kind;
      config.num_workers = 10;
      config.executors_per_worker = 16;
      config.num_clients = 4;
      config.warmup = FromMillis(1);
      config.horizon = FromMillis(5);
      config.max_tasks_per_packet = 1;
      config.timeout_multiplier = 5.0;
      config.jbsq_k = 3;
      config.seed = 42;
      workload::WorkloadSpec stream;
      stream.arrival = workload::ArrivalKind::kOpenLoop;
      stream.tasks_per_second = load * 1000.0;
      stream.duration = config.horizon;
      stream.tasks_per_job = 10;
      stream.service = service;
      stream.seed = 42;
      config.stream = stream.Generate();
      point.config = std::move(config);
      spec.points.push_back(std::move(point));
    }
  }
  ASSERT_EQ(spec.points.size(), 6u);

  SweepOptions serial;
  serial.parallelism = 1;
  const std::vector<SweepPointResult> a = RunSweep(spec, serial);
  SweepOptions parallel;
  parallel.parallelism = 4;
  const std::vector<SweepPointResult> b = RunSweep(spec, parallel);

  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].label);
    const ExperimentResult& ra = a[i].result;
    const ExperimentResult& rb = b[i].result;
    // Exact equality on every derived scalar — no tolerance.
    EXPECT_EQ(ra.throughput_tps, rb.throughput_tps);
    EXPECT_EQ(ra.executor_busy_fraction, rb.executor_busy_fraction);
    EXPECT_EQ(ra.switch_counters.RecirculationShare(), rb.switch_counters.RecirculationShare());
    EXPECT_EQ(ra.drop_fraction, rb.drop_fraction);
    EXPECT_EQ(ra.counters.tasks_assigned, rb.counters.tasks_assigned);
    EXPECT_EQ(ra.counters.noops_sent, rb.counters.noops_sent);
    EXPECT_EQ(ra.counters.credits, rb.counters.credits);
    EXPECT_EQ(ra.switch_counters.passes, rb.switch_counters.passes);
    EXPECT_EQ(ra.switch_counters.recirculations, rb.switch_counters.recirculations);
    ASSERT_NE(ra.metrics, nullptr);
    ASSERT_NE(rb.metrics, nullptr);
    EXPECT_GT(ra.metrics->sched_delay().count(), 0u);
    // The serialized result covers every histogram digest and counter: string
    // equality here is the bit-identity claim.
    EXPECT_EQ(ToJson(ra), ToJson(rb));
  }
}

// --- JSON report -------------------------------------------------------------

TEST(SweepReportTest, GoldenDocument) {
  SweepSpec spec;
  spec.name = "golden";
  spec.title = "golden sweep";
  spec.axis = {"load", "ktps"};
  SweepPoint point;
  point.label = "p0";
  point.series = "s";
  point.x = 1.5;
  point.config.seed = 9;
  spec.points.push_back(std::move(point));
  spec.run = [](const ExperimentConfig&) {
    ExperimentResult result;
    result.offered_tasks_per_second = 1000.0;
    result.offered_utilization = 0.25;
    result.throughput_tps = 998.5;
    result.executor_busy_fraction = 0.125;
    result.drain_time = 123456;
    result.counters.tasks_assigned = 42;
    return result;
  };
  std::vector<SweepPointResult> results = RunSweep(spec, {});
  results[0].scalars["extra_metric"] = 7.5;

  ReportOptions options;
  options.parallelism = 2;
  options.quick = true;
  const std::string doc = RenderJson(spec, results, options);
  const std::string expected = R"({
  "bench": "golden",
  "title": "golden sweep",
  "schema_version": 1,
  "axis": {
    "name": "load",
    "unit": "ktps"
  },
  "quick": true,
  "parallelism": 2,
  "points": [
    {
      "label": "p0",
      "series": "s",
      "x": 1.5,
      "scheduler": "Draconis",
      "policy": "fcfs",
      "sim_queue": "ladder",
      "seed": 9,
      "offered_tasks_per_second": 1000,
      "offered_utilization": 0.25,
      "throughput_tps": 998.5,
      "executor_busy_fraction": 0.125,
      "recirculation_share": 0,
      "drop_fraction": 0,
      "recirc_drops": 0,
      "drain_time_ns": 123456,
      "counters": {
        "tasks_enqueued": 0,
        "tasks_assigned": 42,
        "noops_sent": 0,
        "queue_full_errors": 0,
        "acks_sent": 0,
        "add_repairs": 0,
        "retrieve_repairs": 0,
        "swap_walks_started": 0,
        "swap_exchanges": 0,
        "swap_requeues": 0,
        "priority_probes": 0,
        "tasks_pushed": 0,
        "credit_wait_recirculations": 0,
        "credits": 0,
        "probes_sent": 0,
        "tasks_launched": 0,
        "empty_get_tasks": 0,
        "parked_requests": 0
      },
      "extra": {
        "extra_metric": 7.5
      }
    }
  ]
}
)";
  EXPECT_EQ(doc, expected);
}

TEST(SweepReportTest, ResultJsonIncludesHistograms) {
  const workload::ServiceTime service = workload::ServiceTime::Fixed(FromMicros(100));
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kDraconis;
  config.num_workers = 2;
  config.executors_per_worker = 4;
  config.num_clients = 1;
  config.warmup = FromMillis(1);
  config.horizon = FromMillis(5);
  config.max_tasks_per_packet = 1;
  workload::WorkloadSpec stream;
  stream.arrival = workload::ArrivalKind::kOpenLoop;
  stream.tasks_per_second = 30000.0;
  stream.duration = config.horizon;
  stream.service = service;
  stream.seed = 5;
  config.stream = stream.Generate();
  const ExperimentResult result = cluster::RunExperiment(config);
  const std::string doc = ToJson(result);
  EXPECT_NE(doc.find("\"sched_delay\""), std::string::npos);
  EXPECT_NE(doc.find("\"queueing_delay\""), std::string::npos);
  EXPECT_NE(doc.find("\"e2e_delay\""), std::string::npos);
  EXPECT_NE(doc.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(doc.find("\"tasks_submitted\""), std::string::npos);
}

}  // namespace
}  // namespace draconis::sweep
