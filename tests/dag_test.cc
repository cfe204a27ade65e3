// DAG workload subsystem (src/dag/, docs/dag.md): JobSpec validation and
// JSON round-trips, shape generators, the critical-path lower bound, the
// frontier driver end to end over RunDagExperiment (alone, through a
// scheduler failover, and on a 2-rack topology), straggler hedging, and the
// determinism contract (bit-identical repeats, including the per-point sweep
// runner override the hedging bench relies on).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dag/dag_flags.h"
#include "dag/experiment.h"
#include "dag/frontier_driver.h"
#include "dag/job_spec.h"
#include "sweep/report.h"
#include "sweep/sweep.h"
#include "topology/topology.h"

namespace draconis::dag {
namespace {

JobSpec Diamond() {
  // 0 -> {1, 2} -> 3 with distinct durations: critical path 0 -> 2 -> 3.
  JobSpec spec;
  spec.tasks.resize(4);
  spec.tasks[0].duration = FromMicros(100);
  spec.tasks[1].duration = FromMicros(50);
  spec.tasks[1].deps = {0};
  spec.tasks[2].duration = FromMicros(300);
  spec.tasks[2].deps = {0};
  spec.tasks[3].duration = FromMicros(100);
  spec.tasks[3].deps = {1, 2};
  return spec;
}

// ---------------------------------------------------------------------------
// JobSpec: validation, critical path, JSON round-trip
// ---------------------------------------------------------------------------

TEST(JobSpecTest, ValidateRejectsMalformedSpecs) {
  EXPECT_FALSE(JobSpec{}.Validate().empty()) << "empty job";

  JobSpec forward = Diamond();
  forward.tasks[1].deps = {3};  // forward edge = representable cycle attempt
  EXPECT_FALSE(forward.Validate().empty());

  JobSpec self = Diamond();
  self.tasks[2].deps = {2};
  EXPECT_FALSE(self.Validate().empty());

  JobSpec negative = Diamond();
  negative.tasks[0].duration = -1;
  EXPECT_FALSE(negative.Validate().empty());

  JobSpec duplicate = Diamond();
  duplicate.tasks[3].deps = {1, 1};
  EXPECT_FALSE(duplicate.Validate().empty());

  EXPECT_EQ(Diamond().Validate(), "");
}

TEST(JobSpecTest, CriticalPathIsTheLongestDurationWeightedChain) {
  // One scratch buffer for every call, as the frontier driver reuses one:
  // finish times left from a larger job must not leak into the next.
  std::vector<TimeNs> finish;
  EXPECT_EQ(Diamond().CriticalPathNs(finish), FromMicros(100 + 300 + 100));

  JobSpec chain;
  chain.tasks.resize(3);
  for (size_t i = 0; i < chain.tasks.size(); ++i) {
    chain.tasks[i].duration = FromMicros(10);
    if (i > 0) {
      chain.tasks[i].deps = {static_cast<uint32_t>(i - 1)};
    }
  }
  EXPECT_EQ(chain.CriticalPathNs(finish), FromMicros(30));

  // Independent tasks: the critical path is the single longest task.
  JobSpec flat;
  flat.tasks.resize(3);
  flat.tasks[0].duration = FromMicros(10);
  flat.tasks[1].duration = FromMicros(90);
  flat.tasks[2].duration = FromMicros(20);
  EXPECT_EQ(flat.CriticalPathNs(finish), FromMicros(90));
}

// ---------------------------------------------------------------------------
// DagWorkloadSpec: generators, determinism, JSON round-trip
// ---------------------------------------------------------------------------

DagWorkloadSpec SmallSpec(DagShape shape) {
  DagWorkloadSpec spec;
  spec.shape = shape;
  spec.depth = 4;
  spec.width = 3;
  spec.jobs_per_second = 500.0;
  spec.duration = FromMillis(20);
  spec.service = workload::ServiceTime::Fixed(FromMicros(200));
  spec.seed = 7;
  return spec;
}

TEST(DagWorkloadSpecTest, ShapeNamesRoundTrip) {
  for (const std::string& name : DagShapeNames()) {
    DagShape shape;
    ASSERT_TRUE(DagShapeFromName(name, &shape)) << name;
    EXPECT_EQ(DagShapeName(shape), name);
  }
  DagShape shape;
  EXPECT_FALSE(DagShapeFromName("moebius", &shape));
}

TEST(DagWorkloadSpecTest, GeneratedJobsAreValidAndShaped) {
  for (DagShape shape : {DagShape::kChain, DagShape::kFanOutFanIn, DagShape::kRandom}) {
    const DagWorkloadSpec spec = SmallSpec(shape);
    const std::vector<DagJobArrival> jobs = spec.Generate();
    ASSERT_GT(jobs.size(), 0u) << DagShapeName(shape);
    TimeNs last = 0;
    for (const DagJobArrival& job : jobs) {
      EXPECT_GE(job.at, last);
      last = job.at;
      EXPECT_LT(job.at, spec.duration);
      EXPECT_EQ(job.spec.Validate(), "") << DagShapeName(shape);
      EXPECT_EQ(job.spec.tasks.size(), spec.TasksPerJob()) << DagShapeName(shape);
    }

    const JobSpec& first = jobs[0].spec;
    switch (shape) {
      case DagShape::kChain:
        ASSERT_EQ(first.tasks.size(), 4u);
        for (size_t i = 1; i < first.tasks.size(); ++i) {
          EXPECT_EQ(first.tasks[i].deps,
                    std::vector<uint32_t>{static_cast<uint32_t>(i - 1)});
        }
        break;
      case DagShape::kFanOutFanIn: {
        // 1 source + 2 middle levels x 3 + 1 sink.
        ASSERT_EQ(first.tasks.size(), 8u);
        EXPECT_TRUE(first.tasks[0].deps.empty());
        for (size_t i = 1; i <= 3; ++i) {
          EXPECT_EQ(first.tasks[i].deps, std::vector<uint32_t>{0u});
        }
        EXPECT_EQ(first.tasks.back().deps.size(), 3u) << "sink joins the last level";
        break;
      }
      case DagShape::kRandom:
        ASSERT_EQ(first.tasks.size(), 12u);
        for (size_t i = 1; i < first.tasks.size(); ++i) {
          EXPECT_GE(first.tasks[i].deps.size(), 1u) << "random DAGs stay connected";
        }
        break;
    }
  }
}

TEST(DagWorkloadSpecTest, GenerateIsAPureFunctionOfTheSpec) {
  const DagWorkloadSpec spec = SmallSpec(DagShape::kRandom);
  const std::vector<DagJobArrival> a = spec.Generate();
  const std::vector<DagJobArrival> b = spec.Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].spec, b[i].spec);
  }

  DagWorkloadSpec reseeded = spec;
  reseeded.seed = 8;
  const std::vector<DagJobArrival> c = reseeded.Generate();
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !(a[i].at == c[i].at && a[i].spec == c[i].spec);
  }
  EXPECT_TRUE(differs) << "a different seed must produce a different stream";
}

TEST(DagWorkloadSpecTest, ValidateAndFlagsRejectBadValues) {
  DagWorkloadSpec zero_rate = SmallSpec(DagShape::kChain);
  zero_rate.jobs_per_second = 0.0;
  EXPECT_FALSE(zero_rate.Validate().empty());

  DagWorkloadSpec bad_prob = SmallSpec(DagShape::kRandom);
  bad_prob.edge_prob = 1.5;
  EXPECT_FALSE(bad_prob.Validate().empty());

  DagWorkloadSpec shallow = SmallSpec(DagShape::kFanOutFanIn);
  shallow.depth = 1;  // fan-out/fan-in needs a source and a sink
  EXPECT_FALSE(shallow.Validate().empty());

  DagFlags flags;
  flags.shape = "random";
  flags.edge_prob = -0.5;
  DagWorkloadSpec spec;
  HedgePolicy policy;
  std::string error;
  EXPECT_FALSE(flags.Apply(&spec, &policy, &error));
  EXPECT_FALSE(error.empty());

  DagFlags bad_hedge;
  bad_hedge.hedge_quantile = 1.5;
  error.clear();
  EXPECT_FALSE(bad_hedge.Apply(&spec, &policy, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Frontier driver end to end
// ---------------------------------------------------------------------------

cluster::ExperimentConfig SmallCluster() {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(1);
  config.horizon = FromMillis(30);
  config.run_to_completion = true;
  config.timeout_multiplier = 10.0;
  config.seed = 42;
  return config;
}

TEST(DagExperimentTest, CompletesEveryJobAndRespectsTheLowerBound) {
  DagWorkloadSpec workload = SmallSpec(DagShape::kFanOutFanIn);
  workload.jobs_per_second = 300.0;
  workload.duration = FromMillis(20);
  const cluster::ExperimentConfig config = SmallCluster();
  const cluster::ExperimentResult result =
      RunDagExperiment(config, workload, HedgePolicy{});

  const cluster::DagRunStats& dag = result.dag;
  ASSERT_TRUE(dag.active);
  EXPECT_GT(dag.jobs_submitted, 0u);
  // run_to_completion: every submitted job finishes, and in-window jobs all
  // land in the makespan histogram.
  EXPECT_GT(result.drain_time, 0);
  EXPECT_EQ(dag.jobs_completed, dag.jobs_submitted);
  EXPECT_EQ(dag.makespan.count(), dag.jobs_completed);
  EXPECT_EQ(dag.critical_path.count(), dag.jobs_completed);
  EXPECT_EQ(dag.tasks_submitted, dag.jobs_submitted * workload.TasksPerJob());
  // No hedging: nothing launched, nothing cancelled, nothing wasted.
  EXPECT_EQ(dag.hedges_launched, 0u);
  EXPECT_EQ(dag.replicas_cancelled, 0u);
  EXPECT_EQ(dag.wasted_work, 0);
  // The critical path is a hard lower bound on every observed makespan, so
  // the stretch histogram (makespan/critical-path in 1/1000ths) floors at 1.
  EXPECT_GE(dag.makespan.min(), dag.critical_path.min());
  EXPECT_GE(dag.stretch_milli.min(), 1000);
  // Dependencies serialize: a job completes no sooner than its chain.
  EXPECT_GT(dag.makespan.Mean(), 0.0);
}

TEST(DagExperimentTest, HedgingRescuesStragglersDeterministically) {
  // Heavy-tailed stage services: elephants on the fan-in path are near
  // certain across this many jobs.
  DagWorkloadSpec workload = SmallSpec(DagShape::kFanOutFanIn);
  workload.service = workload::ServiceTime::Pareto(FromMicros(200), 1.2);
  workload.jobs_per_second = 300.0;
  workload.duration = FromMillis(20);
  const cluster::ExperimentConfig config = SmallCluster();

  HedgePolicy hedge;
  hedge.enabled = true;
  hedge.min_samples = 16;
  hedge.initial_delay = FromMillis(1);
  const cluster::ExperimentResult hedged = RunDagExperiment(config, workload, hedge);
  ASSERT_TRUE(hedged.dag.active);
  EXPECT_GT(hedged.dag.hedges_launched, 0u);
  EXPECT_GT(hedged.dag.hedge_wins, 0u) << "some resampled replicas must win their race";
  // run_to_completion decides every race, and each decided race cancels
  // exactly one replica.
  EXPECT_EQ(hedged.dag.replicas_cancelled, hedged.dag.hedges_launched);
  EXPECT_LE(hedged.dag.hedge_wins, hedged.dag.hedges_launched);
  EXPECT_GT(hedged.dag.wasted_work, 0);
  EXPECT_GT(hedged.dag.wasted_work_fraction, 0.0);
  EXPECT_LT(hedged.dag.wasted_work_fraction, 1.0);

  // Both modes are deterministic: hedging off consumes zero RNG, hedging on
  // draws from its own fixed SeedDomain::kDag stream — repeats of either are
  // bit-identical, report and all.
  const cluster::ExperimentResult off_a = RunDagExperiment(config, workload, HedgePolicy{});
  const cluster::ExperimentResult off_b = RunDagExperiment(config, workload, HedgePolicy{});
  EXPECT_EQ(sweep::ToJson(off_a), sweep::ToJson(off_b));
  const cluster::ExperimentResult on_again = RunDagExperiment(config, workload, hedge);
  EXPECT_EQ(sweep::ToJson(hedged), sweep::ToJson(on_again));
}

// DAG jobs through the §3.3 failover: the bench/plans/failover.json shape (a
// scheduler_failover at 10 ms) on Draconis. Clients rehome to the standby on
// timeouts, so every job still completes, the run reports its recovery
// block, and a repeat replays bit-identically.
TEST(DagExperimentTest, FailoverCompletesEveryJobAndReplays) {
  DagWorkloadSpec workload = SmallSpec(DagShape::kFanOutFanIn);
  workload.jobs_per_second = 300.0;
  HedgePolicy hedge;
  hedge.enabled = true;
  cluster::ExperimentConfig config = SmallCluster();
  config.fault_plan.SchedulerFailover(FromMillis(10));

  const cluster::ExperimentResult a = RunDagExperiment(config, workload, hedge);
  ASSERT_TRUE(a.dag.active);
  EXPECT_GT(a.drain_time, 0);
  EXPECT_GT(a.dag.jobs_submitted, 0u);
  EXPECT_EQ(a.dag.jobs_completed, a.dag.jobs_submitted);
  EXPECT_TRUE(a.recovery.fault_plan_active);
  EXPECT_EQ(a.recovery.fault_events_started, 1u);
  EXPECT_GT(a.counters.failovers, 0u);
  EXPECT_GT(a.metrics->executor_rehomes(), 0u);
  EXPECT_EQ(a.recovery.tasks_lost, 0u);
  const std::string json = sweep::ToJson(a);
  EXPECT_NE(json.find("\"recovery\""), std::string::npos);
  EXPECT_EQ(json, sweep::ToJson(RunDagExperiment(config, workload, hedge)));
}

// DAG jobs on a 2-rack ClusterTopology: one client homes to each rack, both
// ToRs schedule, every job completes, and a repeat replays bit-identically.
TEST(DagExperimentTest, TwoRackTopologyCompletesEveryJobAndReplays) {
  DagWorkloadSpec workload = SmallSpec(DagShape::kFanOutFanIn);
  workload.jobs_per_second = 300.0;
  HedgePolicy hedge;
  hedge.enabled = true;
  cluster::ExperimentConfig config = SmallCluster();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);

  const cluster::ExperimentResult a = RunDagExperiment(config, workload, hedge);
  ASSERT_TRUE(a.dag.active);
  EXPECT_GT(a.drain_time, 0);
  EXPECT_GT(a.dag.jobs_submitted, 0u);
  EXPECT_EQ(a.dag.jobs_completed, a.dag.jobs_submitted);
  ASSERT_EQ(a.rack_decisions.size(), 2u);
  EXPECT_GT(a.rack_decisions[0], 0u);
  EXPECT_GT(a.rack_decisions[1], 0u);
  EXPECT_EQ(sweep::ToJson(a), sweep::ToJson(RunDagExperiment(config, workload, hedge)));
}

// With horizon = 0 the horizon is the DAG stream's last arrival + 50 ms, so a
// warmup past 50 ms is valid as long as the stream runs longer than it.
TEST(DagExperimentTest, DerivedHorizonFollowsTheDagStream) {
  DagWorkloadSpec workload = SmallSpec(DagShape::kFanOutFanIn);
  workload.jobs_per_second = 300.0;
  workload.duration = FromMillis(200);
  cluster::ExperimentConfig config = SmallCluster();
  config.horizon = 0;
  config.warmup = FromMillis(60);

  const cluster::ExperimentResult result = RunDagExperiment(config, workload, HedgePolicy{});
  ASSERT_TRUE(result.dag.active);
  EXPECT_GT(result.dag.jobs_submitted, 0u);
  EXPECT_EQ(result.dag.jobs_completed, result.dag.jobs_submitted);
  EXPECT_GT(result.drain_time, FromMillis(60));
}

TEST(DagExperimentTest, SweepPointRunnerOverrideCarriesTheHedgePolicy) {
  // The hedging bench mixes hedging-on and hedging-off series in one sweep
  // via SweepPoint::run; the override must beat SweepSpec::run and flow the
  // point's config through untouched.
  // Dense enough that the [warmup, horizon) metrics window is never empty —
  // job-level counters are window-gated by arrival time.
  DagWorkloadSpec workload = SmallSpec(DagShape::kChain);
  workload.jobs_per_second = 2000.0;
  workload.duration = FromMillis(10);

  sweep::SweepSpec spec;
  spec.name = "dag_test";
  spec.run = [](const cluster::ExperimentConfig&) {
    ADD_FAILURE() << "SweepPoint::run must override SweepSpec::run";
    return cluster::ExperimentResult{};
  };
  sweep::SweepPoint point;
  point.label = "dag";
  point.config = SmallCluster();
  point.run = [workload](const cluster::ExperimentConfig& config) {
    return RunDagExperiment(config, workload, HedgePolicy{});
  };
  spec.points.push_back(std::move(point));
  sweep::SweepPoint plain;
  plain.label = "plain";
  plain.config = SmallCluster();
  plain.config.run_to_completion = false;
  plain.config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  plain.config.workload.tasks_per_second = 1000.0;
  plain.config.workload.duration = plain.config.horizon;
  plain.config.workload.service = workload::ServiceTime::Fixed(FromMicros(100));
  spec.run = nullptr;  // fall through to RunExperiment for the plain point
  spec.points.push_back(std::move(plain));

  const std::vector<sweep::SweepPointResult> results = sweep::RunSweep(spec);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].result.dag.active);
  EXPECT_GT(results[0].result.dag.jobs_completed, 0u);
  EXPECT_FALSE(results[1].result.dag.active);
  // The JSON report carries the dag block only for the DAG point.
  EXPECT_NE(sweep::ToJson(results[0].result).find("\"dag\""), std::string::npos);
  EXPECT_EQ(sweep::ToJson(results[1].result).find("\"dag\""), std::string::npos);
}

}  // namespace
}  // namespace draconis::dag
