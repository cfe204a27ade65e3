// End-to-end runs of the full testbed (clients -> scheduler -> workers) for
// every scheduler kind, checking completion accounting and the qualitative
// properties the paper's comparison rests on.

#include <gtest/gtest.h>

#include "cluster/experiment.h"
#include "workload/workload.h"

namespace draconis::cluster {
namespace {

using workload::ArrivalKind;
using workload::WorkloadSpec;

ExperimentConfig SmallCluster(SchedulerKind kind, double tasks_per_second,
                              TimeNs task_duration = FromMicros(100)) {
  ExperimentConfig config;
  config.scheduler = kind;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(5);

  WorkloadSpec spec;
  spec.arrival = ArrivalKind::kOpenLoop;
  spec.tasks_per_second = tasks_per_second;
  spec.duration = FromMillis(40);
  spec.service = workload::ServiceTime::Fixed(task_duration);
  spec.seed = 9;
  config.stream = spec.Generate();
  config.horizon = FromMillis(40);
  return config;
}

class IntegrationTest : public ::testing::TestWithParam<SchedulerKind> {};

ExperimentConfig PaperCluster(SchedulerKind kind, double tasks_per_second,
                              TimeNs task_duration, size_t tasks_per_job = 10) {
  // The paper's testbed: 10 workers x 16 executors, clients submitting
  // jobs as trains of single-task packets.
  ExperimentConfig config;
  config.scheduler = kind;
  config.num_workers = 10;
  config.executors_per_worker = 16;
  config.num_clients = 4;
  config.warmup = FromMillis(5);
  config.max_tasks_per_packet = 1;

  WorkloadSpec spec;
  spec.arrival = ArrivalKind::kOpenLoop;
  spec.tasks_per_second = tasks_per_second;
  spec.duration = FromMillis(40);
  spec.tasks_per_job = tasks_per_job;
  spec.service = workload::ServiceTime::Fixed(task_duration);
  spec.seed = 9;
  config.stream = spec.Generate();
  config.horizon = FromMillis(40);
  return config;
}

TEST_P(IntegrationTest, ModerateLoadCompletesNearlyAllTasks) {
  // 16 executors x 100 us tasks -> capacity 160 ktps; offer ~40% of it.
  ExperimentConfig config = SmallCluster(GetParam(), 60000.0);
  ExperimentResult result = RunExperiment(config);

  const auto submitted = result.metrics->tasks_submitted();
  const auto completed = result.metrics->tasks_completed();
  ASSERT_GT(submitted, 1000u);
  // Allow a sliver of in-flight stragglers at the horizon.
  EXPECT_GE(completed, submitted * 97 / 100)
      << SchedulerKindName(GetParam()) << ": " << completed << "/" << submitted;

  // Latency sanity: the p50 scheduling delay is between 1 us and 5 ms.
  const TimeNs p50 = result.metrics->sched_delay().Median();
  EXPECT_GT(p50, kMicrosecond) << SchedulerKindName(GetParam());
  EXPECT_LT(p50, FromMillis(5)) << SchedulerKindName(GetParam());

  // Busy fraction roughly matches offered utilization.
  EXPECT_NEAR(result.executor_busy_fraction, result.offered_utilization, 0.15);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, IntegrationTest,
    ::testing::Values(SchedulerKind::kDraconis, SchedulerKind::kDraconisDpdkServer,
                      SchedulerKind::kDraconisSocketServer, SchedulerKind::kR2P2,
                      SchedulerKind::kRackSched, SchedulerKind::kSparrow),
    [](const ::testing::TestParamInfo<SchedulerKind>& param_info) {
      std::string name = SchedulerKindName(param_info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(IntegrationDraconis, LowLoadLatencyIsMicrosecondScale) {
  // The paper reports ~4.7 us p99 at low load on the 160-executor cluster.
  ExperimentConfig config =
      PaperCluster(SchedulerKind::kDraconis, 100000.0, FromMicros(500));
  ExperimentResult result = RunExperiment(config);
  EXPECT_LT(result.metrics->sched_delay().Percentile(0.99), FromMicros(25));
  EXPECT_LT(result.metrics->sched_delay().Median(), FromMicros(10));
}

TEST(IntegrationDraconis, NodeLevelBlockingAdvantageOverR2P2AtHighLoad) {
  // At ~80% utilization with 100 us tasks, R2P2's JBSQ queues tasks behind
  // running tasks (p99 ~ service time) while Draconis' central queue keeps
  // the tail an order of magnitude lower. This is the paper's headline.
  ExperimentConfig draconis =
      PaperCluster(SchedulerKind::kDraconis, 1280000.0, FromMicros(100));
  ExperimentConfig r2p2 = PaperCluster(SchedulerKind::kR2P2, 1280000.0, FromMicros(100));
  const TimeNs draconis_p99 = RunExperiment(draconis).metrics->sched_delay().Percentile(0.99);
  const TimeNs r2p2_p99 = RunExperiment(r2p2).metrics->sched_delay().Percentile(0.99);
  EXPECT_LT(draconis_p99 * 2, r2p2_p99)
      << "draconis=" << FormatDuration(draconis_p99) << " r2p2=" << FormatDuration(r2p2_p99);
}

TEST(IntegrationDraconis, RecirculationShareIsTinyAtHighLoad) {
  // Paper Fig. 7: Draconis recirculates well under 1% of processed packets
  // at high cluster load (recirculation = pointer repairs only).
  // (Recirculations here are retrieve-pointer repairs after empty-queue
  // dips; see EXPERIMENTS.md for the calibration note versus the paper's
  // 0.02-0.05%.)
  ExperimentConfig config =
      PaperCluster(SchedulerKind::kDraconis, 600000.0, FromMicros(250));  // ~94% util
  ExperimentResult result = RunExperiment(config);
  EXPECT_LT(result.switch_counters.RecirculationShare(), 0.05);
  EXPECT_EQ(result.recirc_drops, 0u);
}

TEST(IntegrationR2P2, JbsqOneDropsTasksUnderPressure) {
  // Paper Fig. 7/8: at high load, R2P2-1's overflow tasks have nowhere to
  // queue; they spin through the loopback port, many are dropped, and the
  // client-timeout resubmissions spike the tail (the yellow markers).
  ExperimentConfig r1 =
      PaperCluster(SchedulerKind::kR2P2, 1536000.0, FromMicros(100), /*tasks_per_job=*/1);
  r1.jbsq_k = 1;
  ExperimentResult res1 = RunExperiment(r1);
  EXPECT_GT(res1.switch_counters.RecirculationShare(), 0.1);
  EXPECT_GT(res1.drop_fraction, 0.01);
  EXPECT_GT(res1.metrics->timeout_resubmissions(), 100u);
  EXPECT_GT(res1.metrics->sched_delay().Percentile(0.99), FromMicros(300));
}

TEST(IntegrationR2P2, JbsqThreeAbsorbsLoadWithoutRecirculationButBlocks) {
  // Same load family, one JBSQ notch up: no recirculation, no drops — but
  // node-level blocking puts the tail at task-service scale (Figs. 6, 8).
  ExperimentConfig r3 =
      PaperCluster(SchedulerKind::kR2P2, 1408000.0, FromMicros(100), /*tasks_per_job=*/1);
  r3.jbsq_k = 3;
  ExperimentResult res3 = RunExperiment(r3);
  EXPECT_LT(res3.switch_counters.RecirculationShare(), 0.01);
  EXPECT_EQ(res3.recirc_drops, 0u);
  EXPECT_GT(res3.metrics->sched_delay().Percentile(0.99), FromMicros(90));
  EXPECT_LT(res3.metrics->sched_delay().Percentile(0.99), FromMicros(1000));
}

TEST(IntegrationServer, SocketServerSaturatesBelowDpdkServer) {
  // No-op throughput mode: the socket server's per-packet cost caps its
  // decision rate far below the DPDK server's (paper Fig. 5b).
  for (auto [kind, lo, hi] :
       {std::tuple{SchedulerKind::kDraconisDpdkServer, 700e3, 2e6},
        std::tuple{SchedulerKind::kDraconisSocketServer, 100e3, 450e3}}) {
    ExperimentConfig config = PaperCluster(kind, 1.0, 0);  // stream replaced below
    WorkloadSpec spec;
    spec.arrival = ArrivalKind::kOpenLoop;
    spec.tasks_per_second = 4e6;  // far beyond both servers' capacity
    spec.duration = FromMillis(40);
    spec.tasks_per_job = 64;  // batched submissions, as a framework would
    spec.service = workload::ServiceTime::Fixed(0);
    config.stream = spec.Generate();
    config.max_tasks_per_packet = 0;  // MTU-sized batches, not 1-task trains
    config.noop_executors = true;
    config.horizon = FromMillis(40);
    ExperimentResult result = RunExperiment(config);
    EXPECT_GT(result.throughput_tps, lo) << SchedulerKindName(kind);
    EXPECT_LT(result.throughput_tps, hi) << SchedulerKindName(kind);
  }
}

TEST(IntegrationDraconis, RunToCompletionDrains) {
  ExperimentConfig config = SmallCluster(SchedulerKind::kDraconis, 50000.0);
  config.run_to_completion = true;
  config.horizon = FromSeconds(2);
  ExperimentResult result = RunExperiment(config);
  EXPECT_GE(result.drain_time, 0);
  EXPECT_LT(result.drain_time, FromSeconds(1));
  EXPECT_EQ(result.metrics->tasks_completed(), result.metrics->tasks_submitted());
}

TEST(IntegrationDraconis, PriorityPolicyEndToEnd) {
  ExperimentConfig config = SmallCluster(SchedulerKind::kDraconis, 140000.0);
  config.policy = PolicyKind::kPriority;
  config.priority_levels = 4;
  workload::TaggerStage::Priority({0.1, 0.2, 0.3, 0.4}, 3).Apply(config.stream);
  ExperimentResult result = RunExperiment(config);
  ASSERT_GT(result.metrics->tasks_completed(), 1000u);
  // Under load, high-priority queueing delay must not exceed low-priority.
  const TimeNs p1 = result.metrics->priority_queueing(1).Percentile(0.9);
  const TimeNs p4 = result.metrics->priority_queueing(4).Percentile(0.9);
  EXPECT_LE(p1, p4);
}

TEST(IntegrationDraconis, LocalityPolicyImprovesPlacement) {
  auto make = [](PolicyKind policy) {
    ExperimentConfig config = SmallCluster(SchedulerKind::kDraconis, 90000.0);
    config.policy = policy;
    config.num_racks = 2;
    config.locality_access_model = true;
    workload::TaggerStage::Locality(static_cast<uint32_t>(config.num_workers), 17)
        .Apply(config.stream);
    return config;
  };
  ExperimentResult fcfs = RunExperiment(make(PolicyKind::kFcfs));
  ExperimentResult local = RunExperiment(make(PolicyKind::kLocality));

  const auto frac_local = [](const ExperimentResult& r) {
    const double total =
        static_cast<double>(r.metrics->placements(net::TaskInfo::Placement::kLocal) +
                            r.metrics->placements(net::TaskInfo::Placement::kSameRack) +
                            r.metrics->placements(net::TaskInfo::Placement::kRemote));
    return static_cast<double>(r.metrics->placements(net::TaskInfo::Placement::kLocal)) / total;
  };
  // FCFS places ~1/num_workers locally; the locality policy several times more.
  EXPECT_GT(frac_local(local), 2.0 * frac_local(fcfs));
  // And buys a better median end-to-end latency.
  EXPECT_LT(local.metrics->e2e_delay().Median(), fcfs.metrics->e2e_delay().Median());
}

TEST(IntegrationDraconis, ResourcePolicyRespectsHardConstraints) {
  ExperimentConfig config = SmallCluster(SchedulerKind::kDraconis, 40000.0);
  config.policy = PolicyKind::kResource;
  config.worker_resources = {0b001, 0b011, 0b111, 0b111};
  // All tasks require resource C (bit 2): only workers 2 and 3 qualify.
  for (auto& job : config.stream) {
    for (auto& task : job.tasks) {
      task.tprops = 0b100;
    }
  }
  config.run_to_completion = true;
  config.horizon = FromSeconds(2);
  ExperimentResult result = RunExperiment(config);
  ASSERT_GT(result.metrics->tasks_completed(), 100u);
  // Workers 0 and 1 must have executed nothing.
  size_t forbidden = 0;
  for (uint32_t node : {0u, 1u}) {
    const auto& series = result.metrics->node_completions(node);
    for (size_t b = 0; b < series.NumBuckets(); ++b) {
      forbidden += static_cast<size_t>(series.BucketSum(b));
    }
  }
  EXPECT_EQ(forbidden, 0u);
}

TEST(IntegrationClient, PacketLossIsRecoveredByTimeoutResubmission) {
  // Force-drop 30% of submissions on their way to the switch: every task
  // must still eventually complete, via client timeouts.
  ExperimentConfig config = SmallCluster(SchedulerKind::kDraconis, 20000.0);
  config.run_to_completion = true;
  config.horizon = FromSeconds(5);
  // Shrink the stream so the test stays fast.
  config.stream.resize(200);

  // RunExperiment owns the network, so inject loss indirectly: run with a
  // tiny queue that bounces submissions instead. Queue capacity 1 forces
  // constant full-queue errors and retries.
  config.queue_capacity = 1;
  ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.metrics->tasks_completed(), result.metrics->tasks_submitted());
  EXPECT_GT(result.metrics->queue_full_retries() + result.metrics->timeout_resubmissions(), 0u);
}

}  // namespace
}  // namespace draconis::cluster
