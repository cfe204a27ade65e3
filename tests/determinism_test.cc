// Reproducibility guarantees: identical configurations produce bit-identical
// results, different seeds produce different (but statistically similar)
// runs, and the simulated clock never observes wall time.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/deployment.h"
#include "cluster/experiment.h"
#include "cluster/testbed.h"
#include "common/rng.h"
#include "dag/experiment.h"
#include "fault/plan.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace draconis {
namespace {

cluster::ExperimentConfig MakeConfig(uint64_t seed) {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(2);
  config.horizon = FromMillis(20);
  config.max_tasks_per_packet = 1;
  config.seed = seed;

  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 0.6 * 16 / 100e-6;
  spec.duration = config.horizon;
  spec.service = workload::ServiceTime::PaperExponential();
  spec.seed = seed;
  config.stream = spec.Generate();
  return config;
}

TEST(DeterminismTest, IdenticalConfigsProduceIdenticalResults) {
  cluster::ExperimentResult a = RunExperiment(MakeConfig(5));
  cluster::ExperimentResult b = RunExperiment(MakeConfig(5));

  EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
  EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
  EXPECT_EQ(a.metrics->sched_delay().count(), b.metrics->sched_delay().count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.metrics->sched_delay().Percentile(q), b.metrics->sched_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(a.switch_counters.passes, b.switch_counters.passes);
  EXPECT_EQ(a.counters.tasks_assigned, b.counters.tasks_assigned);
  EXPECT_EQ(a.counters.noops_sent, b.counters.noops_sent);
}

TEST(DeterminismTest, DifferentSeedsDifferButAgreeStatistically) {
  cluster::ExperimentResult a = RunExperiment(MakeConfig(5));
  cluster::ExperimentResult b = RunExperiment(MakeConfig(6));

  // Different event interleavings...
  EXPECT_NE(a.switch_counters.passes, b.switch_counters.passes);
  // ...but the same physics: medians within 2x of each other.
  const double ma = static_cast<double>(a.metrics->sched_delay().Median());
  const double mb = static_cast<double>(b.metrics->sched_delay().Median());
  EXPECT_LT(ma / mb, 2.0);
  EXPECT_LT(mb / ma, 2.0);
}

TEST(DeterminismTest, GoogleTraceGenerationIsSeedStable) {
  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kGoogleTrace;
  spec.tasks_per_second = 200000.0;
  spec.duration = FromMillis(50);
  spec.priority_levels = 4;
  spec.seed = 33;
  workload::JobStream a = spec.Generate();
  workload::JobStream b = spec.Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].at, b[i].at);
    ASSERT_EQ(a[i].tasks.size(), b[i].tasks.size());
    for (size_t t = 0; t < a[i].tasks.size(); ++t) {
      ASSERT_EQ(a[i].tasks[t].duration, b[i].tasks[t].duration);
      ASSERT_EQ(a[i].tasks[t].tprops, b[i].tasks[t].tprops);
    }
  }
}

// A shrunk Fig. 5a point: Draconis scheduler, fixed 500 us tasks, open-loop
// load. Guards the event-engine's ordering guarantee end to end — a
// same-seed run must reproduce every metric bit for bit, including the
// cancellation-heavy executor-watchdog and client-timeout traffic.
cluster::ExperimentConfig Fig05aMiniConfig() {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(2);
  config.horizon = FromMillis(15);
  config.max_tasks_per_packet = 1;
  config.jbsq_k = 3;
  config.timeout_multiplier = 5.0;
  config.seed = 42;

  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 100e3 * 16.0 / 160.0;  // the 100 ktps point, scaled
  spec.duration = config.horizon;
  spec.tasks_per_job = 10;
  spec.service = workload::ServiceTime::Fixed(FromMicros(500));
  spec.seed = config.seed;
  config.stream = spec.Generate();
  return config;
}

TEST(DeterminismTest, Fig05aShapedRunIsBitIdentical) {
  cluster::ExperimentResult a = RunExperiment(Fig05aMiniConfig());
  cluster::ExperimentResult b = RunExperiment(Fig05aMiniConfig());

  EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
  EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
  EXPECT_GT(a.metrics->tasks_completed(), 0u);
  EXPECT_EQ(a.metrics->sched_delay().count(), b.metrics->sched_delay().count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.metrics->sched_delay().Percentile(q), b.metrics->sched_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(a.switch_counters.passes, b.switch_counters.passes);
  EXPECT_EQ(a.counters.tasks_assigned, b.counters.tasks_assigned);
  EXPECT_EQ(a.counters.noops_sent, b.counters.noops_sent);
}

// Pinned goldens: the Fig. 5a mini run, per scheduler kind, against numbers
// captured from a known-good build. These freeze the whole deterministic
// contract — fabric NodeId registration order (scheduler, then workers, then
// clients), the SeedFor domain constants, and the event-engine ordering — so
// any refactor that silently perturbs a stream shows up as a concrete diff
// here, not as a drifted figure. Update the table only for an intentional
// behaviour change, and say so in the commit message.
struct SchedulerGolden {
  cluster::SchedulerKind kind;
  uint64_t completions;
  TimeNs sched_p50;
  TimeNs sched_p99;
  TimeNs e2e_p50;
  TimeNs e2e_p99;
  double throughput_tps;
};

TEST(DeterminismTest, PinnedGoldensPerSchedulerKind) {
  const SchedulerGolden goldens[] = {
      {cluster::SchedulerKind::kDraconis, 130, 8063, 366372, 516095, 869599, 10000.0},
      {cluster::SchedulerKind::kDraconisDpdkServer, 130, 13823, 18136, 523911, 523911,
       10000.0},
      {cluster::SchedulerKind::kDraconisSocketServer, 130, 31231, 44031, 557055, 557055,
       10000.0},
      {cluster::SchedulerKind::kR2P2, 130, 4735, 507903, 507903, 1015807, 10000.0},
      {cluster::SchedulerKind::kRackSched, 130, 7551, 369943, 516095, 872690, 10000.0},
      {cluster::SchedulerKind::kSparrow, 130, 24063, 393215, 540671, 900416, 10000.0},
      {cluster::SchedulerKind::kMalcolm, 130, 7423, 369628, 516095, 872365, 10000.0},
      {cluster::SchedulerKind::kRackSchedEdf, 130, 7551, 369943, 516095, 872690, 10000.0},
      {cluster::SchedulerKind::kRackSchedPs, 130, 7423, 8172, 516095, 689847, 10000.0},
  };
  // The same table must hold on every queue backend — the goldens pin the
  // (at, seq) contract, not one queue implementation.
  for (sim::QueueBackend backend : sim::AllQueueBackends()) {
    SCOPED_TRACE(sim::QueueBackendName(backend));
    for (const SchedulerGolden& golden : goldens) {
      SCOPED_TRACE(cluster::SchedulerKindName(golden.kind));
      cluster::ExperimentConfig config = Fig05aMiniConfig();
      config.scheduler = golden.kind;
      config.sim_queue = backend;
      cluster::ExperimentResult result = RunExperiment(config);
      EXPECT_EQ(result.metrics->tasks_completed(), golden.completions);
      EXPECT_EQ(result.metrics->sched_delay().Percentile(0.50), golden.sched_p50);
      EXPECT_EQ(result.metrics->sched_delay().Percentile(0.99), golden.sched_p99);
      EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.50), golden.e2e_p50);
      EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.99), golden.e2e_p99);
      EXPECT_DOUBLE_EQ(result.throughput_tps, golden.throughput_tps);
    }
  }
}

// Push-path pins the table above never reaches: R2P2 with jbsq_k = 1 (tasks
// wait for a credit in the recirculation port), RackSched-PS on exponential
// service times, and RackSched-EDF on a deadline-tagged stream. All three run
// the Fig. 5a mini cluster at 80% load, where queues form.
struct PushGolden {
  const char* name;
  uint64_t completions;
  TimeNs sched_p50;
  TimeNs sched_p99;
  TimeNs e2e_p50;
  TimeNs e2e_p99;
  uint64_t tasks_pushed;
  uint64_t credits;
  uint64_t credit_wait_recirculations;
  uint64_t recirculations;
};

cluster::ExperimentConfig PushMiniConfig(const std::string& name) {
  cluster::ExperimentConfig config = Fig05aMiniConfig();
  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 0.8 * 16 / 500e-6;
  spec.duration = config.horizon;
  spec.service = workload::ServiceTime::Fixed(FromMicros(500));
  spec.seed = config.seed;
  if (name == "r2p2-1") {
    config.scheduler = cluster::SchedulerKind::kR2P2;
    config.jbsq_k = 1;
  } else if (name == "racksched-ps") {
    config.scheduler = cluster::SchedulerKind::kRackSchedPs;
    spec.service = workload::ServiceTime::PaperExponential();
  } else {
    config.scheduler = cluster::SchedulerKind::kRackSchedEdf;
  }
  config.stream = spec.Generate();
  if (name == "racksched-edf") {
    workload::TaggerStage::Deadline(/*slack=*/3.0, /*jitter_us=*/200, 12).Apply(config.stream);
  }
  return config;
}

TEST(DeterminismTest, PinnedGoldensPushPaths) {
  const PushGolden goldens[] = {
      {"r2p2-1", 343, 3327, 360447, 507903, 868351, 392, 392, 13127, 13127},
      {"racksched-ps", 330, 6783, 6852, 208895, 1212415, 382, 382, 0, 0},
      {"racksched-edf", 343, 6911, 352255, 516095, 868351, 392, 392, 0, 0},
  };
  for (const PushGolden& golden : goldens) {
    SCOPED_TRACE(golden.name);
    cluster::ExperimentResult result = RunExperiment(PushMiniConfig(golden.name));
    EXPECT_EQ(result.metrics->tasks_completed(), golden.completions);
    EXPECT_EQ(result.metrics->sched_delay().Percentile(0.50), golden.sched_p50);
    EXPECT_EQ(result.metrics->sched_delay().Percentile(0.99), golden.sched_p99);
    EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.50), golden.e2e_p50);
    EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.99), golden.e2e_p99);
    EXPECT_EQ(result.counters.tasks_pushed, golden.tasks_pushed);
    EXPECT_EQ(result.counters.credits, golden.credits);
    EXPECT_EQ(result.counters.credit_wait_recirculations, golden.credit_wait_recirculations);
    EXPECT_EQ(result.switch_counters.recirculations, golden.recirculations);
  }
}

// The cross-backend contract head-on: a heap run and a ladder run of the
// fig05a-shaped experiment are bit-identical in every metric. Combined with
// the pinned table above this proves the backends interchangeable for every
// published number.
TEST(DeterminismTest, HeapAndLadderBackendsAreBitIdenticalOnFig05a) {
  cluster::ExperimentConfig heap_config = Fig05aMiniConfig();
  heap_config.sim_queue = sim::QueueBackend::kHeap;
  cluster::ExperimentConfig ladder_config = Fig05aMiniConfig();
  ladder_config.sim_queue = sim::QueueBackend::kLadder;

  cluster::ExperimentResult a = RunExperiment(heap_config);
  cluster::ExperimentResult b = RunExperiment(ladder_config);

  EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
  EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
  EXPECT_GT(a.metrics->tasks_completed(), 0u);
  EXPECT_EQ(a.metrics->sched_delay().count(), b.metrics->sched_delay().count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.metrics->sched_delay().Percentile(q), b.metrics->sched_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(a.switch_counters.passes, b.switch_counters.passes);
  EXPECT_EQ(a.counters.tasks_assigned, b.counters.tasks_assigned);
  EXPECT_EQ(a.counters.noops_sent, b.counters.noops_sent);
  // And both equal the pinned kDraconis golden.
  EXPECT_EQ(b.metrics->tasks_completed(), 130u);
  EXPECT_EQ(b.metrics->sched_delay().Percentile(0.50), 8063);
  EXPECT_EQ(b.metrics->e2e_delay().Percentile(0.99), 869599);
}

// The PIFO equivalence golden (docs/pifo.md): on an untagged fcfs workload
// every strict-priority rank is zero, so the rank-ordered PIFO degenerates to
// pure FIFO and the run must be bit-identical to the circular-queue pipeline
// — including the pinned kDraconis golden above. Guards both directions: the
// PIFO path cannot drift from the paper pipeline, and the pinned numbers
// cannot silently absorb a PIFO regression.
TEST(DeterminismTest, StrictPriorityPifoIsBitIdenticalToFifoPipeline) {
  cluster::ExperimentResult fifo = RunExperiment(Fig05aMiniConfig());

  cluster::ExperimentConfig config = Fig05aMiniConfig();
  config.switch_policy = core::SwitchPolicy::kStrictPriority;
  cluster::ExperimentResult pifo = RunExperiment(config);

  EXPECT_EQ(fifo.metrics->tasks_submitted(), pifo.metrics->tasks_submitted());
  EXPECT_EQ(fifo.metrics->tasks_completed(), pifo.metrics->tasks_completed());
  EXPECT_EQ(fifo.metrics->sched_delay().count(), pifo.metrics->sched_delay().count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(fifo.metrics->sched_delay().Percentile(q),
              pifo.metrics->sched_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(fifo.metrics->e2e_delay().Percentile(q), pifo.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(fifo.switch_counters.passes, pifo.switch_counters.passes);
  EXPECT_EQ(fifo.counters.tasks_assigned, pifo.counters.tasks_assigned);
  EXPECT_EQ(fifo.counters.noops_sent, pifo.counters.noops_sent);

  // And both match the pinned kDraconis golden numbers.
  EXPECT_EQ(pifo.metrics->tasks_completed(), 130u);
  EXPECT_EQ(pifo.metrics->sched_delay().Percentile(0.50), 8063);
  EXPECT_EQ(pifo.metrics->sched_delay().Percentile(0.99), 366372);
  EXPECT_EQ(pifo.metrics->e2e_delay().Percentile(0.50), 516095);
  EXPECT_EQ(pifo.metrics->e2e_delay().Percentile(0.99), 869599);
  EXPECT_DOUBLE_EQ(pifo.throughput_tps, 10000.0);
}

// Every non-default switch policy replays bit-identically for a fixed seed —
// on streams tagged so the ranks are actually non-trivial (priorities,
// deadlines, tenants).
TEST(DeterminismTest, NonDefaultSwitchPoliciesReplayBitIdentically) {
  auto make = [](core::SwitchPolicy policy) {
    cluster::ExperimentConfig config = Fig05aMiniConfig();
    config.switch_policy = policy;
    config.wfq_weights = {3, 1};
    switch (policy) {
      case core::SwitchPolicy::kStrictPriority:
        workload::TaggerStage::Priority({1, 2, 3, 4}, 11).Apply(config.stream);
        break;
      case core::SwitchPolicy::kEdf:
        workload::TaggerStage::Deadline(/*slack=*/3.0, /*jitter_us=*/200, 12).Apply(config.stream);
        break;
      case core::SwitchPolicy::kWfq:
        workload::TaggerStage::Tenant(/*num_tenants=*/2, 13).Apply(config.stream);
        break;
      default:
        break;
    }
    return config;
  };
  for (core::SwitchPolicy policy : core::AllSwitchPolicies()) {
    if (policy == core::SwitchPolicy::kFifo) {
      continue;
    }
    SCOPED_TRACE(core::SwitchPolicyName(policy));
    cluster::ExperimentResult a = RunExperiment(make(policy));
    cluster::ExperimentResult b = RunExperiment(make(policy));
    EXPECT_GT(a.metrics->tasks_completed(), 0u);
    EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
    EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
    EXPECT_EQ(a.metrics->sched_delay().count(), b.metrics->sched_delay().count());
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(a.metrics->sched_delay().Percentile(q),
                b.metrics->sched_delay().Percentile(q))
          << "q=" << q;
      EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
          << "q=" << q;
    }
    EXPECT_EQ(a.switch_counters.passes, b.switch_counters.passes);
    EXPECT_EQ(a.counters.tasks_assigned, b.counters.tasks_assigned);
    EXPECT_EQ(a.counters.noops_sent, b.counters.noops_sent);
  }
}

// Tracing must be a pure observer: sampling is a hash of the task id (no
// RNG, no scheduled events), so a traced run — at any sampling rate — is
// bit-identical to an untraced one. Guards the recorder threading through
// client/network/switch/executor against accidental behaviour branches.
TEST(DeterminismTest, TracingAtAnyRateIsBitIdenticalToUntraced) {
  auto run = [](bool enabled, uint64_t period) {
    cluster::ExperimentConfig config = Fig05aMiniConfig();
    config.trace.enabled = enabled;
    config.trace.sample_period = period;
    return RunExperiment(config);
  };
  cluster::ExperimentResult off = run(false, 64);
  cluster::ExperimentResult sampled = run(true, 64);
  cluster::ExperimentResult full = run(true, 1);

  ASSERT_EQ(off.trace, nullptr);
  ASSERT_NE(sampled.trace, nullptr);
  ASSERT_NE(full.trace, nullptr);
  EXPECT_GT(full.trace->records().size(), sampled.trace->records().size());

  for (const cluster::ExperimentResult* traced : {&sampled, &full}) {
    EXPECT_EQ(off.metrics->tasks_submitted(), traced->metrics->tasks_submitted());
    EXPECT_EQ(off.metrics->tasks_completed(), traced->metrics->tasks_completed());
    EXPECT_EQ(off.metrics->sched_delay().count(), traced->metrics->sched_delay().count());
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(off.metrics->sched_delay().Percentile(q),
                traced->metrics->sched_delay().Percentile(q))
          << "q=" << q;
      EXPECT_EQ(off.metrics->e2e_delay().Percentile(q),
                traced->metrics->e2e_delay().Percentile(q))
          << "q=" << q;
    }
    EXPECT_EQ(off.switch_counters.passes, traced->switch_counters.passes);
    EXPECT_EQ(off.counters.tasks_assigned, traced->counters.tasks_assigned);
    EXPECT_EQ(off.counters.noops_sent, traced->counters.noops_sent);
  }
}

// The fault subsystem's determinism contract (src/fault/): arming an empty —
// or never-firing — plan consumes no randomness and schedules nothing that
// changes behaviour, so the run is bit-identical to a faultless one.
TEST(DeterminismTest, EmptyOrNeverFiringFaultPlanIsBitIdenticalToFaultless) {
  cluster::ExperimentResult faultless = RunExperiment(Fig05aMiniConfig());

  cluster::ExperimentConfig empty_plan = Fig05aMiniConfig();
  empty_plan.fault_plan = fault::FaultPlan{};
  cluster::ExperimentResult with_empty = RunExperiment(empty_plan);

  cluster::ExperimentConfig never_firing = Fig05aMiniConfig();
  // Onset far past the horizon: armed, never fires.
  never_firing.fault_plan.LatencyDegrade(FromSeconds(100), fault::FaultEvent::kNever,
                                         FromMicros(5));
  cluster::ExperimentResult with_never = RunExperiment(never_firing);

  EXPECT_FALSE(with_empty.recovery.fault_plan_active);
  EXPECT_TRUE(with_never.recovery.fault_plan_active);
  EXPECT_EQ(with_never.recovery.fault_events_started, 0u);

  for (const cluster::ExperimentResult* r : {&with_empty, &with_never}) {
    EXPECT_EQ(faultless.metrics->tasks_submitted(), r->metrics->tasks_submitted());
    EXPECT_EQ(faultless.metrics->tasks_completed(), r->metrics->tasks_completed());
    EXPECT_EQ(faultless.metrics->timeout_resubmissions(), r->metrics->timeout_resubmissions());
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(faultless.metrics->sched_delay().Percentile(q),
                r->metrics->sched_delay().Percentile(q))
          << "q=" << q;
      EXPECT_EQ(faultless.metrics->e2e_delay().Percentile(q),
                r->metrics->e2e_delay().Percentile(q))
          << "q=" << q;
    }
    EXPECT_EQ(faultless.switch_counters.passes, r->switch_counters.passes);
    EXPECT_EQ(faultless.counters.tasks_assigned, r->counters.tasks_assigned);
    EXPECT_EQ(faultless.counters.noops_sent, r->counters.noops_sent);
  }
}

// Same seed + same fault plan => bit-identical results, including every
// recovery metric — the §3.3 failover (standby build, executor rehoming,
// client timeout rehoming) is as reproducible as a faultless run.
TEST(DeterminismTest, FailoverRunIsBitIdentical) {
  auto make = [] {
    cluster::ExperimentConfig config = Fig05aMiniConfig();
    config.fault_plan.SchedulerFailover(FromMillis(7));
    config.fault_settle = FromMillis(6);
    return config;
  };
  cluster::ExperimentResult a = RunExperiment(make());
  cluster::ExperimentResult b = RunExperiment(make());

  EXPECT_GT(a.counters.failovers, 0u);
  EXPECT_GT(a.metrics->executor_rehomes(), 0u);
  EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
  EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_during_fault().Percentile(q),
              b.metrics->e2e_during_fault().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_post_fault().Percentile(q),
              b.metrics->e2e_post_fault().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(a.metrics->TimeToRecover(), b.metrics->TimeToRecover());
  EXPECT_EQ(a.metrics->UnavailabilityGap(), b.metrics->UnavailabilityGap());
  EXPECT_EQ(a.metrics->timeout_resubmissions(), b.metrics->timeout_resubmissions());
  EXPECT_EQ(a.recovery.tasks_lost, b.recovery.tasks_lost);
  EXPECT_EQ(a.metrics->client_rehomes(), b.metrics->client_rehomes());
  EXPECT_EQ(a.metrics->executor_rehomes(), b.metrics->executor_rehomes());
  EXPECT_EQ(a.recovery.packets_dropped, b.recovery.packets_dropped);
  EXPECT_EQ(a.counters.failovers, b.counters.failovers);
}

// The multi-rack degenerate case (docs/topology.md): a 1-rack ClusterTopology
// builds the same scheduler, the same registration order, and no fabric
// machinery (no summary publishers, no routers), so it must reproduce the
// single-switch pinned golden bit for bit. This is the topology subsystem's
// whole backward-compatibility contract in one assertion block.
TEST(DeterminismTest, OneRackTopologyIsBitIdenticalToSingleSwitchGolden) {
  cluster::ExperimentConfig config = Fig05aMiniConfig();
  config.cluster = topology::ClusterTopology::Uniform(1, 4, 4);
  cluster::ExperimentResult result = RunExperiment(config);

  EXPECT_EQ(result.rack_decisions.size(), 1u);
  EXPECT_EQ(result.cross_rack_submissions, 0u);
  EXPECT_EQ(result.metrics->tasks_completed(), 130u);
  EXPECT_EQ(result.metrics->sched_delay().Percentile(0.50), 8063);
  EXPECT_EQ(result.metrics->sched_delay().Percentile(0.99), 366372);
  EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.50), 516095);
  EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.99), 869599);
  EXPECT_DOUBLE_EQ(result.throughput_tps, 10000.0);
}

// Captured from a known-good build of the 2-rack mini run below; update only
// for an intentional behaviour change, and say so in the commit message.
constexpr uint64_t kTwoRackGoldenCompletions = 130;
constexpr TimeNs kTwoRackGoldenSchedP50 = 7679;
constexpr TimeNs kTwoRackGoldenE2eP99 = 515731;

cluster::ExperimentConfig TwoRackMiniConfig() {
  cluster::ExperimentConfig config = Fig05aMiniConfig();
  // Two racks of the fig05a shape; the two clients home round-robin, one per
  // rack, so both ToR pipelines see traffic and the summary fabric runs.
  config.cluster = topology::ClusterTopology::Uniform(2, 4, 4);
  return config;
}

// Same seed + same topology => bit-identical multi-rack runs, pinned against
// numbers captured from a known-good build (same update policy as the
// single-switch golden table above). Freezes the multi-rack registration
// order, the rack-indexed placement seed domain, and the summary-fabric
// event schedule.
TEST(DeterminismTest, TwoRackRunReplaysBitIdenticallyAndMatchesPin) {
  cluster::ExperimentResult a = RunExperiment(TwoRackMiniConfig());
  cluster::ExperimentResult b = RunExperiment(TwoRackMiniConfig());

  EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
  EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
  EXPECT_EQ(a.metrics->sched_delay().count(), b.metrics->sched_delay().count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.metrics->sched_delay().Percentile(q), b.metrics->sched_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(a.switch_counters.passes, b.switch_counters.passes);
  EXPECT_EQ(a.counters.tasks_assigned, b.counters.tasks_assigned);
  EXPECT_EQ(a.cross_rack_submissions, b.cross_rack_submissions);
  ASSERT_EQ(a.rack_decisions.size(), 2u);
  EXPECT_EQ(a.rack_decisions, b.rack_decisions);
  // Both racks schedule: the feeder really does split the stream.
  EXPECT_GT(a.rack_decisions[0], 0u);
  EXPECT_GT(a.rack_decisions[1], 0u);

  // The pinned golden (see the comment on PinnedGoldensPerSchedulerKind).
  EXPECT_EQ(a.rack_decisions.size(), 2u);
  EXPECT_EQ(a.metrics->tasks_completed(), kTwoRackGoldenCompletions);
  EXPECT_EQ(a.metrics->sched_delay().Percentile(0.50), kTwoRackGoldenSchedP50);
  EXPECT_EQ(a.metrics->e2e_delay().Percentile(0.99), kTwoRackGoldenE2eP99);
}

// §3.3 failover on a 2-rack topology: rack 0's ToR fails and its standby is
// promoted while rack 1 keeps scheduling. A smoke, not a golden — it guards
// that the per-rack fault path (standby build, executor rehoming, summary
// publisher retarget) composes with the topology at all.
TEST(DeterminismTest, TwoRackTorFailoverRecovers) {
  cluster::ExperimentConfig config = TwoRackMiniConfig();
  config.fault_plan.SchedulerFailover(FromMillis(7));
  config.fault_settle = FromMillis(6);
  cluster::ExperimentResult result = RunExperiment(config);

  EXPECT_GT(result.counters.failovers, 0u);
  EXPECT_GT(result.metrics->executor_rehomes(), 0u);
  EXPECT_GT(result.metrics->tasks_completed(), 0u);
  ASSERT_EQ(result.rack_decisions.size(), 2u);
  // The surviving rack keeps scheduling through the fault.
  EXPECT_GT(result.rack_decisions[1], 0u);
}

// --- Event-free idle polling (core/poll_roster.h) --------------------------
//
// The eager twin: a p = 0 lossy link on every executor<->scheduler link
// (standby included) keeps every poll an event, because a drop rule forbids
// parking, and changes no draw (drop draws use their own streams). The
// parked run must match it exactly in everything a caller can read.
cluster::ExperimentConfig EagerTwin(cluster::ExperimentConfig config) {
  using fault::NodeRef;
  const NodeRef executors{NodeRef::Role::kExecutor, NodeRef::kAllInstances};
  for (const NodeRef::Role role : {NodeRef::Role::kScheduler, NodeRef::Role::kStandby}) {
    const NodeRef schedulers{role, NodeRef::kAllInstances};
    config.fault_plan.LossyLink(0, fault::FaultEvent::kNever, 0.0, executors, schedulers);
    config.fault_plan.LossyLink(0, fault::FaultEvent::kNever, 0.0, schedulers, executors);
  }
  return config;
}

void ExpectParkedMatchesEager(const cluster::ExperimentConfig& config) {
  const cluster::ExperimentResult parked = RunExperiment(config);
  const cluster::ExperimentResult eager = RunExperiment(EagerTwin(config));
  EXPECT_GT(parked.counters.tasks_assigned, 0u);
  EXPECT_EQ(parked.metrics->tasks_submitted(), eager.metrics->tasks_submitted());
  EXPECT_EQ(parked.metrics->tasks_completed(), eager.metrics->tasks_completed());
  EXPECT_EQ(parked.metrics->sched_delay().count(), eager.metrics->sched_delay().count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(parked.metrics->sched_delay().Percentile(q),
              eager.metrics->sched_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(parked.metrics->e2e_delay().Percentile(q), eager.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(parked.switch_counters.packets_in, eager.switch_counters.packets_in);
  EXPECT_EQ(parked.switch_counters.passes, eager.switch_counters.passes);
  EXPECT_EQ(parked.switch_counters.recirculations, eager.switch_counters.recirculations);
  EXPECT_EQ(parked.switch_counters.emitted, eager.switch_counters.emitted);
  EXPECT_EQ(parked.counters.tasks_assigned, eager.counters.tasks_assigned);
  EXPECT_EQ(parked.counters.noops_sent, eager.counters.noops_sent);
  EXPECT_EQ(parked.packets_delivered, eager.packets_delivered);
  EXPECT_EQ(parked.metrics->executor_rehomes(), eager.metrics->executor_rehomes());
  EXPECT_EQ(parked.metrics->timeout_resubmissions(), eager.metrics->timeout_resubmissions());
  EXPECT_DOUBLE_EQ(parked.throughput_tps, eager.throughput_tps);
  EXPECT_EQ(parked.rack_decisions, eager.rack_decisions);
  EXPECT_LT(parked.events_executed, eager.events_executed);
}

TEST(DeterminismTest, ParkedPollingMatchesEagerTwinOnFig05a) {
  ExpectParkedMatchesEager(Fig05aMiniConfig());
  // And it is the point: at least 10x fewer events.
  const cluster::ExperimentResult parked = RunExperiment(Fig05aMiniConfig());
  const cluster::ExperimentResult eager = RunExperiment(EagerTwin(Fig05aMiniConfig()));
  EXPECT_GE(eager.events_executed, 10 * parked.events_executed)
      << "parked " << parked.events_executed << " eager " << eager.events_executed;
}

// The fig05a knee at full fleet size (160 executors, 150 k tasks/s): dozens
// of instants where a re-created poll shares its nanosecond with another
// pass at the switch, so this twin exercises the canonical ingress order.
TEST(DeterminismTest, ParkedPollingMatchesEagerTwinAtTheFig05aKnee) {
  cluster::ExperimentConfig config = Fig05aMiniConfig();
  config.num_workers = 10;
  config.executors_per_worker = 16;
  config.num_clients = 4;
  config.warmup = FromMillis(3);
  config.horizon = FromMillis(12);
  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 150e3;
  spec.duration = config.horizon;
  spec.tasks_per_job = 10;
  spec.service = workload::ServiceTime::Fixed(FromMicros(500));
  spec.seed = config.seed;
  config.stream = spec.Generate();
  ExpectParkedMatchesEager(config);
}

// Parking meets every other path that touches a poll: swap walks and
// constraint mismatches (resource, locality), no-op executors, cross-rack
// submissions, and fault actions that wake parked trains mid-cycle.
TEST(DeterminismTest, ParkedPollingMatchesEagerTwinAcrossPoliciesAndFaults) {
  auto base = [] {
    cluster::ExperimentConfig config = Fig05aMiniConfig();
    config.horizon = FromMillis(12);
    config.stream.clear();
    config.workload.arrival = workload::ArrivalKind::kOpenLoop;
    config.workload.tasks_per_second = 100e3 * 16.0 / 160.0;
    config.workload.duration = config.horizon;
    config.workload.tasks_per_job = 10;
    config.workload.service = workload::ServiceTime::Fixed(FromMicros(500));
    config.workload.seed = config.seed;
    return config;
  };
  {
    SCOPED_TRACE("resource");
    cluster::ExperimentConfig config = base();
    config.policy = cluster::PolicyKind::kResource;
    config.worker_resources = {0b001, 0b011, 0b111, 0b111};
    config.stream = config.workload.Generate();
    config.workload = workload::WorkloadSpec{};
    uint32_t k = 0;
    for (auto& job : config.stream) {
      for (auto& task : job.tasks) {
        task.tprops = (k++ % 3 == 0) ? 0b100 : 0b001;
      }
    }
    ExpectParkedMatchesEager(config);
  }
  {
    SCOPED_TRACE("locality");
    cluster::ExperimentConfig config = base();
    config.policy = cluster::PolicyKind::kLocality;
    config.workload.taggers.push_back(workload::TaggerStage::Locality(4, 17));
    ExpectParkedMatchesEager(config);
  }
  {
    SCOPED_TRACE("no-op executors");
    cluster::ExperimentConfig config = base();
    config.noop_executors = true;
    config.workload.service = workload::ServiceTime::Fixed(0);
    config.workload.tasks_per_second = 2e6;
    ExpectParkedMatchesEager(config);
  }
  {
    SCOPED_TRACE("3 racks, every client on rack 0");
    cluster::ExperimentConfig config = base();
    config.cluster = topology::ClusterTopology::Uniform(3, 2, 4);
    config.cluster.client_homing = topology::ClientHoming::kFirstRack;
    config.workload.tasks_per_second *= 4;
    ExpectParkedMatchesEager(config);
  }
  {
    SCOPED_TRACE("latency degrade, executor crash, lossy client links");
    cluster::ExperimentConfig config = base();
    using fault::NodeRef;
    config.fault_plan.LatencyDegrade(FromMillis(4), FromMillis(6), FromMicros(3));
    config.fault_plan.NodeCrash(FromMillis(5), FromMillis(7), NodeRef{NodeRef::Role::kExecutor, 3});
    config.fault_plan.LossyLink(FromMillis(3), FromMillis(8), 0.2,
                                NodeRef{NodeRef::Role::kClient, NodeRef::kAllInstances},
                                NodeRef{NodeRef::Role::kScheduler, 0});
    ExpectParkedMatchesEager(config);
  }
}

TEST(DeterminismTest, ParkedPollingMatchesEagerTwinOnTwoRacks) {
  ExpectParkedMatchesEager(TwoRackMiniConfig());
}

TEST(DeterminismTest, ParkedPollingMatchesEagerTwinThroughFailover) {
  cluster::ExperimentConfig config = Fig05aMiniConfig();
  config.fault_plan.SchedulerFailover(FromMillis(7));
  config.fault_settle = FromMillis(6);
  ExpectParkedMatchesEager(config);
}

// A backoff cap far past the due queue's window (core/due_queue.h): idle
// trains' next arrivals wait on its overflow list and move into the wheel
// as the window reaches them.
TEST(DeterminismTest, ParkedPollingMatchesEagerTwinWithMillisecondBackoff) {
  cluster::ExperimentConfig config = Fig05aMiniConfig();
  config.executor_template.max_retry = FromMillis(2);
  ExpectParkedMatchesEager(config);
}

// One roster of 1 024 no-op executors at the racks-4 benchmark's
// per-executor rate and 64 us cap: a handful of parked arrivals share each
// bucket, and every pass credits and re-queues dozens of trains.
TEST(DeterminismTest, ParkedPollingMatchesEagerTwinOnADenseRoster) {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.num_workers = 64;
  config.executors_per_worker = 16;
  config.num_clients = 4;
  config.noop_executors = true;
  config.warmup = FromMicros(200);
  config.horizon = FromMicros(500);
  config.drain_margin = FromMicros(50);
  config.max_tasks_per_packet = 1;
  config.executor_template.max_retry = FromMicros(64);
  config.seed = 7;
  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = 3000.0 * 64 * 16;
  config.workload.duration = config.horizon;
  config.workload.tasks_per_job = 1;
  config.workload.service = workload::ServiceTime::Fixed(0);
  config.workload.seed = config.seed;
  ExpectParkedMatchesEager(config);
}

// A roster of 64 no-op executors loaded to ~40% of their pull capacity, so
// its queue is often busy: an executor handed back at its pull (its pass
// would come after a task) often finds the queue idle again when it sends,
// and re-parks right there. Its pass is then no longer a real pass to come,
// and the roster must forget that it was (the other twins here pass even
// when it does not).
TEST(DeterminismTest, ParkedPollingMatchesEagerTwinWhenHandedBackTrainsReParkAtSend) {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.num_workers = 4;
  config.executors_per_worker = 16;
  config.num_clients = 4;
  config.noop_executors = true;
  config.warmup = FromMicros(200);
  config.horizon = FromMillis(3);
  config.drain_margin = FromMicros(50);
  config.max_tasks_per_packet = 1;
  config.executor_template.max_retry = FromMicros(64);
  config.seed = 11;
  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = 125e3 * 4 * 16;
  config.workload.duration = config.horizon;
  config.workload.tasks_per_job = 1;
  config.workload.service = workload::ServiceTime::Fixed(0);
  config.workload.seed = config.seed;
  ExpectParkedMatchesEager(config);
}

// PIFO programs park too (docs/pifo.md): a poll into an empty PIFO only
// claims it for its pass. Every switch policy (fifo is the circular queue),
// at a low load where the PIFO often empties (WFQ's virtual clock is
// written only at dequeue, so the 10% point pins that it does not move
// while polls are parked) and at 80%; with link jitter, and without, where
// every hop takes the no-draw branch of Network::WireArrival.
TEST(DeterminismTest, ParkedPollingMatchesEagerTwinOnEverySwitchPolicy) {
  for (const core::SwitchPolicy policy : core::AllSwitchPolicies()) {
    for (const double load : {0.1, 0.8}) {
      for (const TimeNs max_jitter : {net::NetworkConfig{}.max_jitter, TimeNs{0}}) {
        SCOPED_TRACE(std::string(core::SwitchPolicyName(policy)) + " at " + std::to_string(load) +
                     ", max_jitter " + std::to_string(max_jitter));
        cluster::ExperimentConfig config = Fig05aMiniConfig();
        config.switch_policy = policy;
        config.wfq_weights = {3, 1};
        config.network.max_jitter = max_jitter;
        workload::WorkloadSpec spec;
        spec.arrival = workload::ArrivalKind::kOpenLoop;
        spec.tasks_per_second = load * 16 / 100e-6;
        spec.duration = config.horizon;
        spec.service = workload::ServiceTime::Exponential(FromMicros(100));
        spec.seed = config.seed;
        config.stream = spec.Generate();
        switch (policy) {
          case core::SwitchPolicy::kStrictPriority:
            workload::TaggerStage::Priority({1, 2, 3, 4}, 11).Apply(config.stream);
            break;
          case core::SwitchPolicy::kEdf:
            workload::TaggerStage::Deadline(/*slack=*/3.0, /*jitter_us=*/200, 12)
                .Apply(config.stream);
            break;
          case core::SwitchPolicy::kWfq:
            workload::TaggerStage::Tenant(/*num_tenants=*/2, 13).Apply(config.stream);
            break;
          default:
            break;
        }
        ExpectParkedMatchesEager(config);
      }
    }
  }
}

// The harvest boundary, on a fleet that only polls (no clients). Parked and
// eager fleets must agree on every counter after RunUntil(t) for every t in
// a window, so a poll hop exactly at `until` is counted; and after a Clear()
// at any instant, which credits only the hops strictly before it.
class IdleFleet {
 public:
  explicit IdleFleet(bool eager) : testbed_(TestbedFor(Config())) {
    deployment_ = cluster::DeploymentRegistry::Get().Make(config_);
    deployment_->Build(testbed_);
    deployment_->WireWorkers(testbed_);
    if (eager) {
      const net::NodeId sw = deployment_->scheduler_nodes()[0];
      for (const net::NodeId node : deployment_->WorkerNodes()) {
        testbed_.network().InjectDrop(node, sw, 0.0);
        testbed_.network().InjectDrop(sw, node, 0.0);
      }
    }
  }

  sim::Simulator& simulator() { return testbed_.simulator(); }

  // Everything a caller can read after a run.
  std::vector<uint64_t> Counters() {
    cluster::ExperimentResult result;
    deployment_->Harvest(result);
    const net::Network& net = testbed_.network();
    return {net.packets_sent(), net.packets_delivered(), net.packets_in_flight(),
            result.switch_counters.packets_in, result.switch_counters.passes,
            result.counters.noops_sent};
  }

 private:
  static cluster::ExperimentConfig Config() {
    cluster::ExperimentConfig config;
    config.scheduler = cluster::SchedulerKind::kDraconis;
    config.num_workers = 1;
    config.executors_per_worker = 3;
    config.seed = 5;
    return config;
  }
  static cluster::TestbedConfig TestbedFor(const cluster::ExperimentConfig& config) {
    cluster::TestbedConfig tc;
    tc.seed = config.seed;
    tc.num_workers = config.num_workers;
    return tc;
  }

  cluster::ExperimentConfig config_ = Config();
  cluster::Testbed testbed_;
  std::unique_ptr<cluster::SchedulerDeployment> deployment_;
};

TEST(DeterminismTest, ParkedPollsAreCountedThroughEveryRunUntilBound) {
  IdleFleet parked(false);
  IdleFleet eager(true);
  for (TimeNs t = 30'000; t < 50'000; ++t) {
    parked.simulator().RunUntil(t);
    eager.simulator().RunUntil(t);
    ASSERT_EQ(parked.Counters(), eager.Counters()) << "until " << t;
  }
  EXPECT_LT(4 * parked.simulator().executed_events(), eager.simulator().executed_events());
}

TEST(DeterminismTest, ClearCreditsOnlyParkedHopsBeforeNow) {
  for (TimeNs at = 30'000; at < 32'000; ++at) {
    std::vector<uint64_t> counters[2];
    for (const bool eager : {false, true}) {
      IdleFleet fleet(eager);
      sim::Simulator& simulator = fleet.simulator();
      simulator.ScheduleAt(at, [&simulator] { simulator.Clear(); });
      simulator.RunUntil(at + 10'000);
      counters[eager ? 1 : 0] = fleet.Counters();
    }
    ASSERT_EQ(counters[0], counters[1]) << "clear at " << at;
  }
}

// Pinned DAG goldens (docs/dag.md): a run-to-completion fan-out/fan-in DAG
// stream under Pareto task services, hedged and unhedged, on a pull-based
// (Draconis) and a push-based (RackSched) kind. Freezes the DAG path's client
// construction, the frontier drivers' arrival schedule, the hedge timers and
// the SeedDomain::kDag resample stream, the same way the fig05a table above
// freezes the flat path. `wasted_work` freezes the replicas' accounted
// executor time (docs/dag.md). Same update policy as that table.
struct DagGolden {
  cluster::SchedulerKind kind;
  bool hedge;
  uint64_t jobs_completed;
  TimeNs makespan_p50;
  TimeNs makespan_p99;
  uint64_t hedges_launched;
  uint64_t hedge_wins;
  TimeNs drain_time;
  TimeNs wasted_work;
};

TEST(DeterminismTest, PinnedDagGoldens) {
  const DagGolden goldens[] = {
      {cluster::SchedulerKind::kDraconis, false, 75, 425983, 966655, 0, 0, FromMillis(30), 0},
      {cluster::SchedulerKind::kDraconis, true, 75, 425983, 884735, 35, 13, FromMillis(30),
       4220450},
      {cluster::SchedulerKind::kRackSched, false, 75, 434175, 983039, 0, 0, FromMillis(30), 0},
      {cluster::SchedulerKind::kRackSched, true, 75, 434175, 884735, 35, 13, FromMillis(30),
       4342950},
  };
  dag::DagWorkloadSpec workload;
  workload.shape = dag::DagShape::kFanOutFanIn;
  workload.depth = 3;
  workload.width = 4;
  workload.service = workload::ServiceTime::Pareto(FromMicros(200), 1.3);
  workload.jobs_per_second = 3000.0;
  workload.duration = FromMillis(20);
  workload.seed = 11;
  for (const DagGolden& golden : goldens) {
    SCOPED_TRACE(std::string(cluster::SchedulerKindName(golden.kind)) +
                 (golden.hedge ? " +hedge" : " no-hedge"));
    cluster::ExperimentConfig config;
    config.scheduler = golden.kind;
    config.num_workers = 4;
    config.executors_per_worker = 4;
    config.num_clients = 2;
    config.warmup = FromMillis(1);
    config.horizon = FromMillis(30);
    config.run_to_completion = true;
    config.timeout_multiplier = 10.0;
    config.jbsq_k = 3;
    config.seed = 42;
    dag::HedgePolicy hedge;
    hedge.enabled = golden.hedge;
    hedge.min_samples = 16;
    hedge.initial_delay = FromMillis(1);
    const cluster::ExperimentResult result = dag::RunDagExperiment(config, workload, hedge);
    const cluster::DagRunStats& d = result.dag;
    ASSERT_TRUE(d.active);
    ASSERT_GT(d.makespan.count(), 0u);
    EXPECT_EQ(d.jobs_completed, golden.jobs_completed);
    EXPECT_EQ(d.makespan.Percentile(0.50), golden.makespan_p50);
    EXPECT_EQ(d.makespan.Percentile(0.99), golden.makespan_p99);
    EXPECT_EQ(d.hedges_launched, golden.hedges_launched);
    EXPECT_EQ(d.hedge_wins, golden.hedge_wins);
    EXPECT_EQ(result.drain_time, golden.drain_time);
    EXPECT_EQ(d.wasted_work, golden.wasted_work);
  }
}

// Builds a randomized self-extending event graph on `sim`: chains that
// reschedule themselves, cancellable watchdogs that are armed and torn
// down, and a periodic timer — all driven off one seeded Rng so two
// instances evolve identically. The workload is the sink of all three:
// (id, kTick) runs Tick(id), (0, kWatchdog) a watchdog, (0, kPulse) the
// timer.
struct ScriptedWorkload final : sim::EventSink {
  static constexpr uint32_t kTick = 0;
  static constexpr uint32_t kWatchdog = 1;
  static constexpr uint32_t kPulse = 2;

  sim::Simulator* sim;
  Rng rng;
  std::vector<int>* order;
  int remaining;
  sim::EventHandle watchdog;
  sim::Timer pulse;

  ScriptedWorkload(sim::Simulator* s, uint64_t seed, std::vector<int>* out, int events)
      : sim(s), rng(seed), order(out), remaining(events) {
    pulse.Bind(sim, this, 0, kPulse);
    pulse.ScheduleAfter(17);
    Tick(0);
  }

  void OnEvent(uint32_t id, uint32_t kind) override {
    if (kind == kTick) {
      Tick(static_cast<int>(id));
    } else if (kind == kWatchdog) {
      order->push_back(-2);
    } else {
      order->push_back(-1);
      if (remaining > 0) {
        pulse.ScheduleAfter(17);
      }
    }
  }

  void Tick(int id) {
    order->push_back(id);
    if (remaining-- <= 0) {
      return;
    }
    const int next = static_cast<int>(rng.NextBelow(1 << 30));
    sim->ScheduleAt(sim->Now() + 1 + static_cast<TimeNs>(rng.NextBelow(37)), this,
                    static_cast<uint32_t>(next), kTick);
    // Churn a watchdog like the executor pull loop does.
    watchdog.Cancel();
    watchdog = sim->ScheduleAt(sim->Now() + 500 + static_cast<TimeNs>(rng.NextBelow(100)), this,
                               0, kWatchdog, sim::kCancellable);
  }
};

TEST(DeterminismTest, RunUntilInSmallStepsEqualsOneRunAll) {
  // On every backend — and the histories must also agree across backends.
  std::vector<std::vector<int>> per_backend_orders;
  for (sim::QueueBackend backend : sim::AllQueueBackends()) {
    SCOPED_TRACE(sim::QueueBackendName(backend));
    std::vector<int> order_all;
    std::vector<int> order_stepped;
    uint64_t executed_all = 0;
    uint64_t executed_stepped = 0;

    {
      sim::Simulator sim(backend);
      ScriptedWorkload wl(&sim, 77, &order_all, 3000);
      sim.RunAll();
      executed_all = sim.executed_events();
    }
    {
      sim::Simulator sim(backend);
      ScriptedWorkload wl(&sim, 77, &order_stepped, 3000);
      // Many tiny uneven steps must replay the exact same history.
      TimeNs t = 0;
      Rng step_rng(123);
      while (sim.pending_events() > 0) {
        t += 1 + static_cast<TimeNs>(step_rng.NextBelow(23));
        sim.RunUntil(t);
      }
      executed_stepped = sim.executed_events();
    }

    EXPECT_EQ(order_all, order_stepped);
    EXPECT_EQ(executed_all, executed_stepped);
    EXPECT_GT(executed_all, 3000u);
    per_backend_orders.push_back(std::move(order_all));
  }
  for (size_t i = 1; i < per_backend_orders.size(); ++i) {
    EXPECT_EQ(per_backend_orders[0], per_backend_orders[i]);
  }
}

}  // namespace
}  // namespace draconis
