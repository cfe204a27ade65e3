// Unit-level checks of the experiment harness: bookkeeping math, window
// semantics, defaults, and scheduler-specific wiring that the figure benches
// rely on.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/deployment.h"
#include "cluster/experiment.h"
#include "common/check.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace draconis::cluster {
namespace {

ExperimentConfig TinyConfig(double tasks_per_second = 40000.0) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kDraconis;
  config.num_workers = 2;
  config.executors_per_worker = 4;
  config.num_clients = 1;
  config.warmup = FromMillis(2);
  config.horizon = FromMillis(20);
  config.max_tasks_per_packet = 1;

  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kOpenLoop;
  spec.tasks_per_second = tasks_per_second;
  spec.duration = config.horizon;
  spec.service = workload::ServiceTime::Fixed(FromMicros(100));
  spec.seed = 3;
  config.stream = spec.Generate();
  return config;
}

TEST(ExperimentTest, OfferedUtilizationMatchesArithmetic) {
  // 40k tasks/s x 100 us over 8 executors = 50%.
  ExperimentResult result = RunExperiment(TinyConfig());
  EXPECT_NEAR(result.offered_utilization, 0.5, 0.03);
  EXPECT_NEAR(result.offered_tasks_per_second, 40000.0, 2500.0);
}

// Every kind charges the core time its tasks hold: each registered kind, and
// RackSched under each intra-node policy.
TEST(ExperimentTest, BusyFractionTracksOfferedLoad) {
  using baselines::IntraNodePolicy;
  std::vector<std::pair<SchedulerKind, IntraNodePolicy>> runs;
  for (const DeploymentInfo& info : DeploymentRegistry::Get().all()) {
    runs.emplace_back(info.kind, IntraNodePolicy::kFcfs);
  }
  runs.emplace_back(SchedulerKind::kRackSched, IntraNodePolicy::kProcessorSharing);
  runs.emplace_back(SchedulerKind::kRackSched, IntraNodePolicy::kEdf);
  for (const auto& [kind, intra] : runs) {
    SCOPED_TRACE(std::string(SchedulerKindName(kind)) + " / intra-node policy " +
                 std::to_string(static_cast<int>(intra)));
    ExperimentConfig config = TinyConfig();
    config.scheduler = kind;
    config.racksched_intra_policy = intra;
    ExperimentResult result = RunExperiment(config);
    EXPECT_NEAR(result.executor_busy_fraction, result.offered_utilization, 0.06);
  }
}

TEST(ExperimentTest, WarmupTasksAreNotMeasured) {
  ExperimentConfig config = TinyConfig();
  config.warmup = FromMillis(10);  // half the stream is warmup
  ExperimentResult half = RunExperiment(config);
  config.warmup = FromMillis(2);
  ExperimentResult most = RunExperiment(config);
  EXPECT_LT(half.metrics->tasks_submitted(), most.metrics->tasks_submitted() * 2 / 3);
}

TEST(ExperimentTest, DefaultHorizonCoversTheStream) {
  ExperimentConfig config = TinyConfig();
  config.horizon = 0;  // derive from the last arrival
  ExperimentResult result = RunExperiment(config);
  // Everything submitted completes within the derived horizon + margin.
  EXPECT_EQ(result.metrics->tasks_completed(), result.metrics->tasks_submitted());
}

TEST(ExperimentTest, ThroughputMatchesCompletionsPerWindow) {
  ExperimentResult result = RunExperiment(TinyConfig());
  const double window_seconds = ToSeconds(FromMillis(20) - FromMillis(2));
  EXPECT_NEAR(result.throughput_tps,
              static_cast<double>(result.metrics->tasks_completed()) / window_seconds,
              1.0);
}

TEST(ExperimentTest, TextbookDequeueModeIsWiredThrough) {
  ExperimentConfig config = TinyConfig();
  config.shadow_copy_dequeue = false;
  ExperimentResult result = RunExperiment(config);
  // The textbook dequeue repairs the retrieve pointer after empty-queue
  // dips; at 50% load there are plenty.
  EXPECT_GT(result.counters.retrieve_repairs, 0u);

  config.shadow_copy_dequeue = true;
  ExperimentResult shadow = RunExperiment(config);
  EXPECT_EQ(shadow.counters.retrieve_repairs, 0u);
}

TEST(ExperimentTest, RackSchedIntraPolicyIsWiredThrough) {
  ExperimentConfig config = TinyConfig(64000.0);  // 80%: queues form
  config.scheduler = SchedulerKind::kRackSched;
  config.racksched_intra_policy = baselines::IntraNodePolicy::kProcessorSharing;
  ExperimentResult ps = RunExperiment(config);
  config.racksched_intra_policy = baselines::IntraNodePolicy::kFcfs;
  ExperimentResult fcfs = RunExperiment(config);
  // Both complete the work; PS has the (weakly) smaller queueing tail.
  EXPECT_GT(ps.metrics->tasks_completed(), 0u);
  EXPECT_LE(ps.metrics->sched_delay().Percentile(0.99),
            fcfs.metrics->sched_delay().Percentile(0.99));
}

TEST(ExperimentTest, PipelineOverridesAreHonored) {
  ExperimentConfig config = TinyConfig();
  config.scheduler = SchedulerKind::kR2P2;
  config.jbsq_k = 1;
  // Choke the loopback port completely: any spin drops immediately.
  config.pipeline.recirc_rate_pps = 1e3;
  config.pipeline.recirc_queue_depth = 1;
  ExperimentConfig heavy = config;
  heavy.stream = TinyConfig(76000.0).stream;  // ~95% of 8 executors
  ExperimentResult result = RunExperiment(heavy);
  EXPECT_GT(result.recirc_drops, 0u);
}

TEST(ExperimentTest, SparrowMultiSchedulerDeploysDistinctServers) {
  ExperimentConfig config = TinyConfig();
  config.scheduler = SchedulerKind::kSparrow;
  config.num_schedulers = 2;
  ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.counters.tasks_launched, 0u);
  EXPECT_GE(result.metrics->tasks_completed(), result.metrics->tasks_submitted() * 97 / 100);
}

TEST(ExperimentTest, SeedChangesWorkloadButNotShape) {
  ExperimentConfig a = TinyConfig();
  a.seed = 1;
  ExperimentConfig b = TinyConfig();
  b.seed = 2;
  ExperimentResult ra = RunExperiment(a);
  ExperimentResult rb = RunExperiment(b);
  EXPECT_GT(ra.metrics->tasks_completed(), 0u);
  EXPECT_GT(rb.metrics->tasks_completed(), 0u);
  // Network jitter differs by seed, so pass counts differ.
  EXPECT_NE(ra.switch_counters.emitted, rb.switch_counters.emitted);
}

TEST(ExperimentTest, SchedulerKindNamesRoundTrip) {
  for (SchedulerKind kind :
       {SchedulerKind::kDraconis, SchedulerKind::kDraconisDpdkServer,
        SchedulerKind::kDraconisSocketServer, SchedulerKind::kR2P2, SchedulerKind::kRackSched,
        SchedulerKind::kSparrow}) {
    SchedulerKind parsed;
    ASSERT_TRUE(SchedulerKindFromName(SchedulerKindName(kind), &parsed))
        << SchedulerKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
}

TEST(ExperimentTest, SchedulerKindFromNameIsCaseInsensitiveWithShortSpellings) {
  SchedulerKind parsed;
  ASSERT_TRUE(SchedulerKindFromName("draconis", &parsed));
  EXPECT_EQ(parsed, SchedulerKind::kDraconis);
  ASSERT_TRUE(SchedulerKindFromName("RACKSCHED", &parsed));
  EXPECT_EQ(parsed, SchedulerKind::kRackSched);
  ASSERT_TRUE(SchedulerKindFromName("dpdk-server", &parsed));
  EXPECT_EQ(parsed, SchedulerKind::kDraconisDpdkServer);
  ASSERT_TRUE(SchedulerKindFromName("socket-server", &parsed));
  EXPECT_EQ(parsed, SchedulerKind::kDraconisSocketServer);
  EXPECT_FALSE(SchedulerKindFromName("mesos", &parsed));
  EXPECT_FALSE(SchedulerKindFromName("", &parsed));
}

// Every sweep point echoes these spellings and list_schedulers prints them.
TEST(ExperimentTest, PolicyKindNamesArePinned) {
  EXPECT_STREQ(PolicyKindName(PolicyKind::kFcfs), "fcfs");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kPriority), "priority");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kResource), "resource");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kLocality), "locality");
}

// --- ExperimentConfig::Validate ----------------------------------------------

TEST(ValidateTest, AcceptsTheTinyConfig) {
  EXPECT_EQ(TinyConfig().Validate(), "");
}

TEST(ValidateTest, RejectsZeroSizedCluster) {
  ExperimentConfig config = TinyConfig();
  config.num_workers = 0;
  EXPECT_NE(config.Validate().find("num_workers"), std::string::npos);

  config = TinyConfig();
  config.executors_per_worker = 0;
  EXPECT_NE(config.Validate().find("executors_per_worker"), std::string::npos);

  config = TinyConfig();
  config.num_clients = 0;
  EXPECT_NE(config.Validate().find("num_clients"), std::string::npos);
}

TEST(ValidateTest, RejectsReplicatingSingleInstanceSchedulers) {
  ExperimentConfig config = TinyConfig();
  config.num_schedulers = 2;  // only Sparrow deploys replicas
  const std::string error = config.Validate();
  EXPECT_NE(error.find("num_schedulers"), std::string::npos) << error;

  config.scheduler = SchedulerKind::kSparrow;
  EXPECT_EQ(config.Validate(), "");
}

TEST(ValidateTest, RejectsPoliciesTheSchedulerIgnores) {
  ExperimentConfig config = TinyConfig();
  config.scheduler = SchedulerKind::kR2P2;
  config.policy = PolicyKind::kPriority;
  const std::string error = config.Validate();
  EXPECT_NE(error.find("ignores policy"), std::string::npos) << error;
  EXPECT_NE(error.find("R2P2"), std::string::npos) << error;

  // Draconis honors every policy.
  config.scheduler = SchedulerKind::kDraconis;
  EXPECT_EQ(config.Validate(), "");
}

TEST(ValidateTest, RejectsShortResourceTable) {
  ExperimentConfig config = TinyConfig();
  config.policy = PolicyKind::kResource;
  config.worker_resources = {0x1};  // 2 workers, 1 entry
  const std::string error = config.Validate();
  EXPECT_NE(error.find("worker_resources"), std::string::npos) << error;

  config.worker_resources = {0x1, 0x2};
  EXPECT_EQ(config.Validate(), "");
}

TEST(ValidateTest, RejectsSwitchPoliciesTheSchedulerCannotRun) {
  // Only draconis declares PIFO support; every baseline runs the fixed FIFO
  // switch queue (docs/pifo.md).
  ExperimentConfig config = TinyConfig();
  config.scheduler = SchedulerKind::kSparrow;
  config.switch_policy = core::SwitchPolicy::kSrpt;
  const std::string error = config.Validate();
  EXPECT_NE(error.find("switch policy"), std::string::npos) << error;
  EXPECT_NE(error.find("srpt"), std::string::npos) << error;

  config.scheduler = SchedulerKind::kDraconis;
  EXPECT_EQ(config.Validate(), "");
}

TEST(ValidateTest, RejectsClusterCombosTheTopologyCannotRun) {
  // A multi-rack topology on the Draconis kind with fcfs is fine...
  ExperimentConfig config = TinyConfig();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);
  EXPECT_EQ(config.Validate(), "");

  // ...but single-switch baselines cannot shard.
  config.scheduler = SchedulerKind::kSparrow;
  std::string error = config.Validate();
  EXPECT_NE(error.find("multi-rack"), std::string::npos) << error;

  // One scheduler per rack is implied; replicas on top are rejected.
  config = TinyConfig();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);
  config.num_schedulers = 2;
  error = config.Validate();
  EXPECT_NE(error.find("num_schedulers"), std::string::npos) << error;

  // Per-switch policy state (priority levels etc.) is not sharded.
  config = TinyConfig();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);
  config.policy = PolicyKind::kPriority;
  error = config.Validate();
  EXPECT_NE(error.find("fcfs"), std::string::npos) << error;

  // The locality policy's data-rack map and the cluster topology are
  // mutually exclusive models of "rack".
  config = TinyConfig();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);
  config.locality_access_model = true;
  error = config.Validate();
  EXPECT_NE(error.find("locality_access_model"), std::string::npos) << error;

  // Topology-level errors propagate with context.
  config = TinyConfig();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);
  config.cluster.racks[1].num_workers = 0;
  error = config.Validate();
  EXPECT_NE(error.find("cluster topology: "), std::string::npos) << error;
}

TEST(ValidateTest, RejectsSwitchPolicyCombinedWithPerLevelQueues) {
  // A non-FIFO switch policy replaces the retrieval discipline; the
  // per-level queues and swap walks have no meaning.
  ExperimentConfig config = TinyConfig();
  config.switch_policy = core::SwitchPolicy::kStrictPriority;
  config.policy = PolicyKind::kPriority;
  std::string error = config.Validate();
  EXPECT_NE(error.find("fcfs"), std::string::npos) << error;
}

TEST(ValidateTest, RejectsDegenerateWfqWeights) {
  ExperimentConfig config = TinyConfig();
  config.switch_policy = core::SwitchPolicy::kWfq;
  config.wfq_weights = {};
  EXPECT_NE(config.Validate().find("weight"), std::string::npos);

  config.wfq_weights = {3, 0};
  EXPECT_NE(config.Validate().find("positive"), std::string::npos);

  config.wfq_weights = {3, 1};
  EXPECT_EQ(config.Validate(), "");
}

TEST(ValidateTest, RejectsWarmupPastTheHorizon) {
  ExperimentConfig config = TinyConfig();
  config.warmup = config.horizon;
  const std::string error = config.Validate();
  EXPECT_NE(error.find("warmup"), std::string::npos) << error;
}

TEST(ValidateTest, RejectsLocalityTaggerWiderThanTheCluster) {
  // Worker 9 on a 4-worker cluster would abort the run mid-way: Validate() refuses it.
  ExperimentConfig config = TinyConfig();
  config.stream.clear();
  config.num_workers = 4;
  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.duration = config.horizon;
  config.workload.taggers.push_back(workload::TaggerStage::Locality(10, 17));
  for (const bool policy : {true, false}) {
    config.policy = policy ? PolicyKind::kLocality : PolicyKind::kFcfs;
    config.locality_access_model = !policy;
    EXPECT_NE(config.Validate().find("outside the cluster's 4 workers"), std::string::npos);
  }
  config.workload.taggers.back().num_nodes = 4;
  EXPECT_EQ(config.Validate(), "");
  config.locality_access_model = false;
  config.workload.taggers.back().num_nodes = 10;  // no locality consumer: tags are inert
  EXPECT_EQ(config.Validate(), "");

  config.policy = PolicyKind::kLocality;  // an explicit stream is checked task by task
  config.stream = config.workload.Generate();
  config.workload = workload::WorkloadSpec{};
  EXPECT_NE(config.Validate().find("outside the cluster's 4 workers"), std::string::npos);
  workload::TaggerStage::Locality(4, 17).Apply(config.stream);
  EXPECT_EQ(config.Validate(), "");
}

// Each of these passed Validate() once and then aborted the run on a CHECK
// deep in the layer that reads the value (or, for a NaN timeout multiplier,
// cast NaN to an integer).
TEST(ValidateTest, RefusesConfigsTheRunWouldAbortOn) {
  struct Case {
    const char* name;
    void (*mutate)(ExperimentConfig&);
    const char* expect;
  };
  const Case cases[] = {
      {"no data racks", [](ExperimentConfig& c) { c.num_racks = 0; }, "num_racks"},
      {"empty switch queue", [](ExperimentConfig& c) { c.queue_capacity = 0; },
       "queue_capacity"},
      {"priority without levels",
       [](ExperimentConfig& c) {
         c.policy = PolicyKind::kPriority;
         c.priority_levels = 0;
       },
       "priority_levels"},
      {"JBSQ(0)",
       [](ExperimentConfig& c) {
         c.scheduler = SchedulerKind::kR2P2;
         c.jbsq_k = 0;
       },
       "jbsq_k"},
      {"negative warmup", [](ExperimentConfig& c) { c.warmup = -1; }, "warmup"},
      {"zero-width node series", [](ExperimentConfig& c) { c.node_series_bucket = 0; },
       "node_series_bucket"},
      {"zero retry cap", [](ExperimentConfig& c) { c.executor_template.max_retry = 0; },
       "max_retry"},
      {"no recirculation bandwidth", [](ExperimentConfig& c) { c.pipeline.recirc_rate_pps = 0; },
       "recirc_rate_pps"},
      {"NaN recirculation rate",
       [](ExperimentConfig& c) {
         c.pipeline.recirc_rate_pps = std::numeric_limits<double>::quiet_NaN();
       },
       "recirc_rate_pps"},
      {"NaN timeout multiplier",
       [](ExperimentConfig& c) {
         c.timeout_multiplier = std::numeric_limits<double>::quiet_NaN();
       },
       "timeout_multiplier"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ExperimentConfig config = TinyConfig();
    c.mutate(config);
    const std::string error = config.Validate();
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
  }
}

TEST(ValidateTest, RunExperimentRefusesInvalidConfigs) {
  ExperimentConfig config = TinyConfig();
  config.num_workers = 0;
  EXPECT_THROW(RunExperiment(config), draconis::CheckFailure);
}

// --- Deployment registry -----------------------------------------------------

TEST(DeploymentRegistryTest, EnumeratesAllKindsInEnumOrder) {
  const std::vector<DeploymentInfo>& infos = DeploymentRegistry::Get().all();
  ASSERT_EQ(infos.size(), 8u);
  for (size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(infos[i].kind), i);
    EXPECT_STREQ(SchedulerKindName(infos[i].kind), infos[i].canonical_name);
  }
}

TEST(DeploymentRegistryTest, FlagChoicesMatchRegistration) {
  const std::vector<std::string> choices = DeploymentRegistry::Get().FlagChoices();
  const std::vector<std::string> expected = {"draconis",  "dpdk-server", "socket-server",
                                             "r2p2",      "racksched",   "sparrow",
                                             "malcolm",   "racksched-edf"};
  EXPECT_EQ(choices, expected);
}

TEST(DeploymentRegistryTest, FindByNameAcceptsCanonicalAndFlagSpellings) {
  const DeploymentRegistry& registry = DeploymentRegistry::Get();
  ASSERT_NE(registry.FindByName("Draconis-DPDK-Server"), nullptr);
  EXPECT_EQ(registry.FindByName("Draconis-DPDK-Server")->kind,
            SchedulerKind::kDraconisDpdkServer);
  ASSERT_NE(registry.FindByName("dpdk-server"), nullptr);
  EXPECT_EQ(registry.FindByName("dpdk-server")->kind, SchedulerKind::kDraconisDpdkServer);
  EXPECT_EQ(registry.FindByName("mesos"), nullptr);
}

// Registry-driven smoke matrix: every registered kind (x every policy it
// honors, x a two- and a one-worker cluster) pushes a tiny stream to
// completion and reports into the counter fields that kind owns. A new
// scheduler registered in the DeploymentRegistry is picked up here
// automatically.
TEST(DeploymentRegistryTest, SmokeMatrixEveryKindCompletesAndHarvests) {
  for (const DeploymentInfo& info : DeploymentRegistry::Get().all()) {
    for (PolicyKind policy : info.policies) {
      for (size_t workers : {2, 1}) {
        SCOPED_TRACE(std::string(info.canonical_name) + " / " + PolicyKindName(policy) + " / " +
                     std::to_string(workers) + " worker(s)");
        ExperimentConfig config = TinyConfig(10000.0 * workers);  // 25%: everything drains
        config.scheduler = info.kind;
        config.policy = policy;
        config.num_workers = workers;
        if (policy == PolicyKind::kResource) {
          config.worker_resources = {0x1, 0x1};  // every worker can run tprops=0
        }
        ASSERT_EQ(config.Validate(), "");
        ExperimentResult result = RunExperiment(config);

        EXPECT_GT(result.metrics->tasks_completed(), 0u);
        EXPECT_GE(result.metrics->tasks_completed(),
                  result.metrics->tasks_submitted() * 9 / 10);
        switch (info.kind) {
          case SchedulerKind::kDraconis:
            EXPECT_GT(result.counters.tasks_enqueued, 0u);
            EXPECT_GT(result.counters.tasks_assigned, 0u);
            EXPECT_GT(result.switch_counters.passes, 0u);
            break;
          case SchedulerKind::kDraconisDpdkServer:
          case SchedulerKind::kDraconisSocketServer:
            EXPECT_GT(result.counters.tasks_enqueued, 0u);
            EXPECT_GT(result.counters.tasks_assigned, 0u);
            break;
          case SchedulerKind::kR2P2:
          case SchedulerKind::kRackSched:
          case SchedulerKind::kMalcolm:
          case SchedulerKind::kRackSchedEdf:
            EXPECT_GT(result.counters.tasks_pushed, 0u);
            EXPECT_GT(result.counters.credits, 0u);
            EXPECT_GT(result.switch_counters.passes, 0u);
            break;
          case SchedulerKind::kSparrow:
            EXPECT_GT(result.counters.probes_sent, 0u);
            EXPECT_GT(result.counters.tasks_launched, 0u);
            break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace draconis::cluster
