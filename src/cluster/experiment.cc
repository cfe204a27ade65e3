#include "cluster/experiment.h"

#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "cluster/client.h"
#include "cluster/deployment.h"
#include "cluster/feeder.h"
#include "cluster/testbed.h"
#include "common/check.h"
#include "fault/injector.h"
#include "sim/simulator.h"

namespace draconis::cluster {

namespace {

TimeNs EffectiveHorizon(const ExperimentConfig& config, TimeNs last_arrival) {
  return config.horizon > 0 ? config.horizon : last_arrival + FromMillis(50);
}

}  // namespace

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFcfs:
      return "fcfs";
    case PolicyKind::kPriority:
      return "priority";
    case PolicyKind::kResource:
      return "resource";
    case PolicyKind::kLocality:
      return "locality";
  }
  return "unknown";
}

std::vector<topology::RackSpec> EffectiveRackSpecs(const ExperimentConfig& config) {
  if (config.cluster.enabled()) {
    return config.cluster.racks;
  }
  // Legacy single-switch layout: one rack shaped by the flat knobs.
  return {topology::RackSpec{config.num_workers, config.executors_per_worker}};
}

std::string ExperimentConfig::Validate(std::optional<TimeNs> last_arrival) const {
  if (num_workers < 1) {
    return "num_workers must be >= 1";
  }
  if (executors_per_worker < 1) {
    return "executors_per_worker must be >= 1";
  }
  if (num_clients < 1) {
    return "num_clients must be >= 1";
  }
  if (num_schedulers < 1) {
    return "num_schedulers must be >= 1";
  }
  if (num_racks < 1) {
    return "num_racks must be >= 1 (the testbed spreads the workers over that many data racks)";
  }
  if (queue_capacity < 1) {
    return "queue_capacity must be >= 1 (a switch queue with no slots admits no task)";
  }
  if (policy == PolicyKind::kPriority && priority_levels < 1) {
    return "the priority policy needs priority_levels >= 1 (one queue per level)";
  }
  if (scheduler == SchedulerKind::kR2P2 && jbsq_k < 1) {
    return "R2P2 needs jbsq_k >= 1 (JBSQ(0) bounds every executor queue at zero tasks)";
  }
  if (warmup < 0) {
    return "warmup must be >= 0 (the measurement window starts at simulated time warmup)";
  }
  if (node_series_bucket <= 0) {
    return "node_series_bucket must be > 0 (the width of a per-node completion bucket)";
  }
  if (!std::isfinite(timeout_multiplier) || timeout_multiplier <= 0.0) {
    return "timeout_multiplier must be finite and > 0 (a client timeout is the multiplier x "
           "the task's duration)";
  }
  if (executor_template.max_retry < 1) {
    return "executor_template.max_retry must be >= 1 ns (it caps the idle-poll backoff, "
           "which draws a jitter below the current interval)";
  }
  if (!(pipeline.recirc_rate_pps >= 1.0)) {
    return "pipeline.recirc_rate_pps must be >= 1 (packets per second through the "
           "recirculation port)";
  }

  const DeploymentInfo& info = DeploymentRegistry::Get().Info(scheduler);
  if (num_schedulers > 1 && !info.multi_scheduler) {
    return std::string(info.canonical_name) +
           " deploys a single scheduler; num_schedulers > 1 is only valid for "
           "multi-scheduler kinds (Sparrow)";
  }
  bool policy_supported = false;
  for (PolicyKind p : info.policies) {
    policy_supported = policy_supported || p == policy;
  }
  if (!policy_supported) {
    return std::string(info.canonical_name) + " ignores policy '" +
           PolicyKindName(policy) + "'; it only supports its own scheduling discipline";
  }
  if (policy == PolicyKind::kResource && worker_resources.size() < num_workers) {
    return "resource policy needs a worker_resources bitmap for every worker (" +
           std::to_string(worker_resources.size()) + " given, " +
           std::to_string(num_workers) + " workers)";
  }

  if (switch_policy != core::SwitchPolicy::kFifo) {
    bool switch_policy_supported = false;
    for (core::SwitchPolicy p : info.switch_policies) {
      switch_policy_supported = switch_policy_supported || p == switch_policy;
    }
    if (!switch_policy_supported) {
      return std::string(info.canonical_name) + " runs the fixed FIFO switch queue; "
             "switch policy '" + core::SwitchPolicyName(switch_policy) +
             "' needs a PIFO-capable scheduler kind (draconis)";
    }
    if (policy != PolicyKind::kFcfs) {
      return std::string("switch policy '") + core::SwitchPolicyName(switch_policy) +
             "' replaces the retrieval discipline; combine it with the fcfs policy "
             "(priority/resource/locality need the per-level queues and swap walks)";
    }
  }
  if (switch_policy == core::SwitchPolicy::kWfq) {
    if (wfq_weights.empty()) {
      return "wfq switch policy needs at least one tenant weight";
    }
    for (uint32_t w : wfq_weights) {
      if (w == 0) {
        return "wfq tenant weights must be positive";
      }
    }
  }

  const std::string cluster_error = cluster.Validate();
  if (!cluster_error.empty()) {
    return "cluster topology: " + cluster_error;
  }
  if (cluster.enabled()) {
    if (!info.multi_rack) {
      return std::string(info.canonical_name) +
             " deploys a single switch; a multi-rack ClusterTopology needs a "
             "multi-rack-capable scheduler kind (draconis)";
    }
    if (num_schedulers > 1) {
      return "a multi-rack ClusterTopology already deploys one scheduler per rack; "
             "num_schedulers must be 1";
    }
    if (policy != PolicyKind::kFcfs) {
      return std::string("policy '") + PolicyKindName(policy) +
             "' keeps per-switch state the cross-rack placement layer does not shard; "
             "combine a ClusterTopology with the fcfs policy";
    }
    if (locality_access_model) {
      return "locality_access_model maps workers onto the locality policy's data racks, "
             "which a multi-rack ClusterTopology replaces; disable one of the two";
    }
  }

  if (workload.enabled()) {
    if (!stream.empty()) {
      return "set either a declarative workload spec or an explicit stream, not both";
    }
    const std::string workload_error = workload.Validate();
    if (!workload_error.empty()) {
      return workload_error;
    }
  }
  // The locality consumers read tprops as a data node in [0, num_workers);
  // a node outside the cluster would abort the run at its first lookup.
  if (policy == PolicyKind::kLocality || locality_access_model) {
    const std::string too_wide = "locality tags name data nodes outside the cluster's " +
                                 std::to_string(num_workers) + " workers";
    for (const workload::TaggerStage& stage : workload.taggers) {
      if (stage.kind == workload::TaggerStage::Kind::kLocality &&
          stage.num_nodes > num_workers) {
        return too_wide;
      }
    }
    for (const workload::JobArrival& job : stream) {
      for (const workload::TaskSpec& task : job.tasks) {
        if (task.tprops >= num_workers) {
          return too_wide;
        }
      }
    }
  }

  if (!last_arrival) {
    last_arrival =
        workload.enabled() ? workload.ArrivalEnd() : (stream.empty() ? 0 : stream.back().at);
  }
  if (warmup >= EffectiveHorizon(*this, *last_arrival)) {
    return "warmup must end before the horizon (warmup=" + std::to_string(warmup) +
           " ns, horizon=" + std::to_string(EffectiveHorizon(*this, *last_arrival)) + " ns)";
  }

  const std::string fault_error = fault_plan.Validate();
  if (!fault_error.empty()) {
    return "fault plan: " + fault_error;
  }
  if (fault_plan.has_scheduler_failover() && !info.failover) {
    return std::string(info.canonical_name) +
           " has no standby deployment; scheduler_failover fault events need a "
           "failover-capable scheduler kind";
  }
  if (!fault_plan.empty() && fault_settle <= 0) {
    return "fault_settle must be > 0 when a fault plan is set";
  }
  return "";
}

namespace {

// The flat path's source: replays a JobStream through a Feeder, dealing jobs
// round-robin over the clients in arrival order.
class StreamSource : public JobSource {
 public:
  // `stream` must outlive the source.
  explicit StreamSource(const workload::JobStream& stream) : stream_(stream) {}

  TimeNs last_arrival() const override { return stream_.empty() ? 0 : stream_.back().at; }
  size_t offered_tasks() const override { return workload::TotalTasks(stream_); }
  TimeNs offered_work() const override { return workload::TotalWork(stream_); }

  void Start(Testbed* testbed, const std::vector<Client*>& clients) override {
    // `clients` lives in RunExperiment for the whole run.
    const std::vector<Client*>* targets = &clients;
    feeder_.emplace(&testbed->simulator(), &stream_, clients.size(),
                    [targets](size_t client, const std::vector<workload::TaskSpec>& tasks) {
                      (*targets)[client]->SubmitJob(tasks);
                    });
    feeder_->Start();
  }
  bool done() const override { return feeder_->done(); }

 private:
  const workload::JobStream& stream_;
  std::optional<Feeder> feeder_;
};

// Polls for drain every 10 ms; once everything is done, records the drain
// time and drops the remaining events (idle executor polling would otherwise
// run forever). The source and the clients must outlive the check.
class DrainCheck final : public sim::EventSink {
 public:
  DrainCheck(sim::Simulator& sim, const JobSource& source, const std::vector<Client*>& clients,
             TimeNs last_arrival, TimeNs& drain_time)
      : sim_(sim), source_(source), clients_(clients), last_(last_arrival), drain_(drain_time) {
    timer_.Bind(&sim, this, 0, 0);
    timer_.ScheduleAfter(kPoll);
  }

  void OnEvent(uint32_t /*unused*/, uint32_t /*unused*/) override {
    size_t outstanding = 0;
    for (const Client* client : clients_) {
      outstanding += client->outstanding();
    }
    if (source_.done() && outstanding == 0 && sim_.Now() > last_) {
      drain_ = sim_.Now();
      sim_.Clear();
      return;
    }
    timer_.ScheduleAfter(kPoll);
  }

 private:
  static constexpr TimeNs kPoll = FromMillis(10);

  sim::Simulator& sim_;
  const JobSource& source_;
  const std::vector<Client*>& clients_;
  TimeNs last_;  // the source's last arrival
  TimeNs& drain_;
  sim::Timer timer_;
};

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  const std::string error = config.Validate();
  DRACONIS_CHECK_MSG(error.empty(), "invalid ExperimentConfig: " + error);

  // Generate from the declarative spec when one is set; the generated stream
  // must outlive the source, hence the local.
  const workload::JobStream generated =
      config.workload.enabled() ? config.workload.Generate() : workload::JobStream{};
  StreamSource source(config.workload.enabled() ? generated : config.stream);
  return RunExperiment(config, source);
}

ExperimentResult RunExperiment(const ExperimentConfig& config, JobSource& source) {
  const TimeNs last_arrival = source.last_arrival();
  const std::string error = config.Validate(last_arrival);
  DRACONIS_CHECK_MSG(error.empty(), "invalid ExperimentConfig: " + error);
  const TimeNs horizon = EffectiveHorizon(config, last_arrival);

  const std::vector<topology::RackSpec> rack_specs = EffectiveRackSpecs(config);
  const size_t num_racks_eff = rack_specs.size();
  size_t total_workers = 0;
  size_t total_executors = 0;
  for (const topology::RackSpec& rack : rack_specs) {
    total_workers += rack.num_workers;
    total_executors += rack.executors();
  }

  TestbedConfig tc;
  tc.seed = config.seed;
  tc.num_workers = total_workers;
  tc.num_racks = config.num_racks;
  tc.warmup = config.warmup;
  tc.horizon = horizon;
  tc.priority_levels =
      config.policy == PolicyKind::kPriority ? config.priority_levels : 0;
  tc.node_series_bucket = config.node_series_bucket;
  tc.network = config.network;
  if (config.cluster.enabled()) {
    // The aggregation tier is part of the topology spec; thread it into the
    // fabric's two-tier latency model.
    tc.network.aggregation_latency = config.cluster.aggregation_latency;
    tc.network.agg_ns_per_byte = config.cluster.agg_ns_per_byte;
  }
  tc.trace = config.trace;
  tc.sim_queue = config.sim_queue;
  Testbed testbed(tc);
  sim::Simulator& simulator = testbed.simulator();

  // Kind-specific construction lives entirely in the deployment: scheduler
  // first, then workers, then clients (registration order fixes fabric
  // NodeIds, which the determinism goldens pin).
  std::unique_ptr<SchedulerDeployment> deployment = DeploymentRegistry::Get().Make(config);
  deployment->Build(testbed);
  deployment->WireWorkers(testbed);
  const std::vector<net::NodeId>& scheduler_nodes = deployment->scheduler_nodes();
  DRACONIS_CHECK_MSG(!scheduler_nodes.empty(), "deployment built no scheduler");

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Client*> client_ptrs;
  for (size_t c = 0; c < config.num_clients; ++c) {
    ClientConfig cc;
    cc.uid = static_cast<uint32_t>(c);
    cc.timeout_multiplier = config.timeout_multiplier;
    cc.timeout_floor = config.timeout_floor;
    cc.fire_and_forget = config.noop_executors;
    if (config.max_tasks_per_packet > 0) {
      cc.max_tasks_per_packet = config.max_tasks_per_packet;
    }
    deployment->ConfigureClient(cc);
    clients.push_back(std::make_unique<Client>(&testbed, cc));
    // Round-robin homing; under a multi-rack topology scheduler_nodes is the
    // rack-ordered ToR table, so this is also the client's home rack.
    size_t sched_index = c % scheduler_nodes.size();
    if (config.cluster.enabled() &&
        config.cluster.client_homing == topology::ClientHoming::kFirstRack) {
      sched_index = 0;
    }
    clients.back()->SetScheduler(scheduler_nodes[sched_index]);
    if (num_racks_eff > 1) {
      testbed.network().SetNodeRack(clients.back()->node_id(),
                                    static_cast<uint32_t>(sched_index));
    }
    // The standby (when built) protects scheduler_nodes[0]; only clients
    // homed there arm the timeout-rehome fallback. Legacy single-switch
    // configs have sched_index == 0 for every client.
    if (!deployment->standby_nodes().empty() && sched_index == 0) {
      clients.back()->SetStandby(deployment->standby_nodes()[0]);
    }
    client_ptrs.push_back(clients.back().get());
  }

  // §3.3: arm the fault plan. Fault randomness draws from its own seed
  // domain and an empty plan schedules nothing, so a fault-free run stays
  // bit-identical to one without the fault layer (determinism_test pins it).
  fault::Injector injector(
      &testbed, config.fault_plan,
      fault::InjectorHooks{
          [&](const fault::NodeRef& ref) -> std::vector<net::NodeId> {
            switch (ref.role) {
              case fault::NodeRef::Role::kScheduler:
                return deployment->scheduler_nodes();
              case fault::NodeRef::Role::kStandby:
                return deployment->standby_nodes();
              case fault::NodeRef::Role::kExecutor:
                return deployment->WorkerNodes();
              case fault::NodeRef::Role::kClient: {
                std::vector<net::NodeId> nodes;
                nodes.reserve(clients.size());
                for (const auto& client : clients) {
                  nodes.push_back(client->node_id());
                }
                return nodes;
              }
              case fault::NodeRef::Role::kNode:
                break;  // resolved by the injector itself
            }
            return {};
          },
          [&] { deployment->Failover(testbed); },
          [&] { deployment->WakeIdlePollers(); }});
  injector.Arm();
  if (!config.fault_plan.empty()) {
    testbed.metrics()->ConfigureFaultWindow(config.fault_plan.first_onset(),
                                            config.fault_plan.last_clearance(config.fault_settle));
  }

  source.Start(&testbed, client_ptrs);

  // No-op throughput accounting: snapshot the deployment's decision count at
  // the window edges (executor pulls for pull-based kinds, worker
  // completions for push-based ones).
  uint64_t decisions_at_warmup = 0;
  uint64_t decisions_at_end = 0;
  if (config.noop_executors) {
    simulator.ScheduleAt(config.warmup,
                 [&] { decisions_at_warmup = deployment->DecisionCount(testbed); });
    simulator.ScheduleAt(horizon, [&] { decisions_at_end = deployment->DecisionCount(testbed); });
  }

  ExperimentResult result;

  std::optional<DrainCheck> drain_check;
  if (config.run_to_completion) {
    drain_check.emplace(simulator, source, client_ptrs, last_arrival, result.drain_time);
  }

  simulator.RunUntil(horizon + config.drain_margin);

  if (testbed.recorder() != nullptr) {
    testbed.recorder()->FinalizeAt(simulator.Now());
    result.trace = testbed.TakeRecorder();
  }

  testbed.network().CheckConservation();
  result.events_executed = simulator.executed_events();
  result.packets_delivered = testbed.network().packets_delivered();
  deployment->Harvest(result);

  MetricsHub* metrics = testbed.metrics();
  source.Harvest(*metrics, &result);
  const size_t offered_tasks = source.offered_tasks();
  const double stream_seconds = last_arrival > 0 ? ToSeconds(last_arrival) : 1.0;
  result.offered_tasks_per_second = static_cast<double>(offered_tasks) / stream_seconds;
  result.offered_utilization =
      static_cast<double>(source.offered_work()) /
      (static_cast<double>(last_arrival > 0 ? last_arrival : 1) *
       static_cast<double>(total_executors));
  if (offered_tasks > 0) {
    result.drop_fraction =
        static_cast<double>(result.recirc_drops) / static_cast<double>(offered_tasks);
  }

  const double window_seconds = ToSeconds(horizon - config.warmup);
  if (config.noop_executors) {
    result.throughput_tps =
        static_cast<double>(decisions_at_end - decisions_at_warmup) / window_seconds;
  } else {
    result.throughput_tps = metrics->CompletionThroughput();
  }
  result.executor_busy_fraction =
      static_cast<double>(metrics->total_busy()) /
      (static_cast<double>(horizon - config.warmup) * static_cast<double>(total_executors));
  if (config.cluster.enabled()) {
    result.cross_rack_packets = testbed.network().cross_rack_packets();
  }

  if (!config.fault_plan.empty()) {
    RecoveryStats& rec = result.recovery;
    rec.fault_plan_active = true;
    for (const auto& client : clients) {
      rec.tasks_lost += client->outstanding();
    }
    rec.packets_dropped = testbed.network().packets_dropped();
    rec.fault_events_started = injector.events_started();
    rec.fault_events_cleared = injector.events_cleared();
  }

  result.metrics = testbed.TakeMetrics();
  return result;
}

}  // namespace draconis::cluster
