#include "cluster/deployment.h"

#include <cctype>
#include <utility>

#include "baselines/central_server_deployment.h"
#include "baselines/push_deployment.h"
#include "baselines/sparrow_deployment.h"
#include "common/check.h"
#include "core/draconis_deployment.h"

namespace draconis::cluster {

namespace {

std::string AsciiLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// PullBasedDeployment
// ---------------------------------------------------------------------------

uint32_t PullBasedDeployment::ExecPropsFor(size_t worker) const {
  switch (config().policy) {
    case PolicyKind::kLocality:
      return static_cast<uint32_t>(worker);
    case PolicyKind::kResource:
      DRACONIS_CHECK_MSG(worker < config().worker_resources.size(),
                         "resource policy needs worker_resources for every worker");
      return config().worker_resources[worker];
    default:
      return 0;
  }
}

void PullBasedDeployment::WireWorkers(Testbed& testbed) {
  DRACONIS_CHECK_MSG(!scheduler_nodes_.empty(), "WireWorkers before Build");
  const ExperimentConfig& cfg = config();
  const std::vector<topology::RackSpec> racks = EffectiveRackSpecs(cfg);
  const bool multi_rack = cfg.cluster.enabled();
  DRACONIS_CHECK_MSG(!multi_rack || scheduler_nodes_.size() == racks.size(),
                     "multi-rack deployment must build one scheduler per rack");
  size_t total_executors = 0;
  for (const topology::RackSpec& rack : racks) {
    total_executors += rack.executors();
  }
  executors_.reserve(total_executors);
  rack_first_executor_.clear();
  size_t worker = 0;  // global worker index: unique across racks
  for (size_t r = 0; r < racks.size(); ++r) {
    rack_first_executor_.push_back(executors_.size());
    for (size_t w = 0; w < racks[r].num_workers; ++w, ++worker) {
      for (size_t e = 0; e < racks[r].executors_per_worker; ++e) {
        ExecutorConfig ec = cfg.executor_template;
        ec.worker_node = static_cast<uint32_t>(worker);
        ec.exec_props = ExecPropsFor(worker);
        ec.drop_tasks = cfg.noop_executors;
        if (cfg.locality_access_model) {
          ec.topology = &testbed.topology();
        }
        executors_.push_back(std::make_unique<Executor>(&testbed, ec));
        if (multi_rack) {
          testbed.network().SetNodeRack(executors_.back()->node_id(), static_cast<uint32_t>(r));
        }
      }
    }
  }
  rack_first_executor_.push_back(executors_.size());
  // Stagger the initial pulls so the fleet doesn't arrive in lockstep; each
  // executor pulls from its own rack's ToR. Legacy (no ClusterTopology)
  // configs keep the unwrapped global stagger the determinism goldens pin.
  // Topology configs wrap a rack-local stagger: an unwrapped 10^5-executor
  // fleet would spread its first pulls over tens of milliseconds — past any
  // microsecond-scale measurement window — while the wrap keeps every start
  // inside ~54 us and degenerates to the legacy schedule below 256 executors
  // (which is what keeps the 1-rack topology bit-identical to the
  // single-switch golden).
  constexpr size_t kStaggerWrap = 256;
  for (size_t r = 0; r < racks.size(); ++r) {
    const net::NodeId tor = scheduler_nodes_[multi_rack ? r : 0];
    for (size_t i = rack_first_executor_[r]; i < rack_first_executor_[r + 1]; ++i) {
      const size_t slot = multi_rack ? (i - rack_first_executor_[r]) % kStaggerWrap : i;
      executors_[i]->SetParking(ParkingFor(multi_rack ? r : 0));
      executors_[i]->Start(tor, static_cast<TimeNs>(1 + slot * 211));
    }
  }
}

std::vector<net::NodeId> PullBasedDeployment::WorkerNodes() const {
  std::vector<net::NodeId> nodes;
  nodes.reserve(executors_.size());
  for (const auto& ex : executors_) {
    nodes.push_back(ex->node_id());
  }
  return nodes;
}

void PullBasedDeployment::RehomeRackExecutors(Testbed& testbed, size_t rack,
                                              net::NodeId scheduler, PollParking* parking) {
  DRACONIS_CHECK(rack + 1 < rack_first_executor_.size());
  for (size_t i = rack_first_executor_[rack]; i < rack_first_executor_[rack + 1]; ++i) {
    executors_[i]->Rehome(scheduler);
    executors_[i]->SetParking(parking);
    testbed.metrics()->RecordExecutorRehome();
  }
}

uint64_t PullBasedDeployment::DecisionCount(Testbed& testbed) const {
  uint64_t total = testbed.metrics()->total_node_completions();
  for (const auto& ex : executors_) {
    total += ex->tasks_executed();
  }
  return total;
}

// ---------------------------------------------------------------------------
// DeploymentRegistry
// ---------------------------------------------------------------------------

DeploymentRegistry::DeploymentRegistry() {
  // Registration order == SchedulerKind enumeration order; Info() depends on
  // it. Static self-registration would be dead-stripped out of the static
  // library, so the kinds are aggregated explicitly here.
  infos_.push_back(core::DraconisDeploymentInfo());
  infos_.push_back(baselines::DpdkServerDeploymentInfo());
  infos_.push_back(baselines::SocketServerDeploymentInfo());
  using baselines::IntraNodePolicy;
  using baselines::PushRule;
  infos_.push_back(baselines::PushDeploymentInfo(SchedulerKind::kR2P2, "R2P2", "r2p2",
                                                 PushRule::kJbsq, IntraNodePolicy::kFcfs));
  infos_.push_back(baselines::PushDeploymentInfo(SchedulerKind::kRackSched, "RackSched",
                                                 "racksched", PushRule::kPowerOfTwo,
                                                 IntraNodePolicy::kFcfs));
  infos_.push_back(baselines::SparrowDeploymentInfo());
  infos_.push_back(baselines::PushDeploymentInfo(SchedulerKind::kMalcolm, "Malcolm", "malcolm",
                                                 PushRule::kLatencyAware,
                                                 IntraNodePolicy::kFcfs));
  infos_.push_back(baselines::PushDeploymentInfo(SchedulerKind::kRackSchedEdf, "RackSched-EDF",
                                                 "racksched-edf", PushRule::kPowerOfTwo,
                                                 IntraNodePolicy::kEdf));
  infos_.push_back(baselines::PushDeploymentInfo(SchedulerKind::kRackSchedPs, "RackSched-PS",
                                                 "racksched-ps", PushRule::kPowerOfTwo,
                                                 IntraNodePolicy::kProcessorSharing));
  for (size_t i = 0; i < infos_.size(); ++i) {
    DRACONIS_CHECK_MSG(static_cast<size_t>(infos_[i].kind) == i,
                       "registry order must match the SchedulerKind enum");
  }
}

const DeploymentRegistry& DeploymentRegistry::Get() {
  static const DeploymentRegistry registry;
  return registry;
}

const DeploymentInfo& DeploymentRegistry::Info(SchedulerKind kind) const {
  const size_t index = static_cast<size_t>(kind);
  DRACONIS_CHECK(index < infos_.size());
  return infos_[index];
}

const DeploymentInfo* DeploymentRegistry::FindByName(const std::string& name) const {
  const std::string lower = AsciiLower(name);
  for (const DeploymentInfo& info : infos_) {
    if (lower == AsciiLower(info.canonical_name) || lower == info.flag_name) {
      return &info;
    }
  }
  return nullptr;
}

std::vector<std::string> DeploymentRegistry::FlagChoices() const {
  std::vector<std::string> choices;
  choices.reserve(infos_.size());
  for (const DeploymentInfo& info : infos_) {
    choices.push_back(info.flag_name);
  }
  return choices;
}

std::unique_ptr<SchedulerDeployment> DeploymentRegistry::Make(
    const ExperimentConfig& config) const {
  return Info(config.scheduler).make(config);
}

// ---------------------------------------------------------------------------
// Registry-backed name round trips (declared in experiment.h)
// ---------------------------------------------------------------------------

const char* SchedulerKindName(SchedulerKind kind) {
  return DeploymentRegistry::Get().Info(kind).canonical_name;
}

bool SchedulerKindFromName(const std::string& name, SchedulerKind* out) {
  DRACONIS_CHECK(out != nullptr);
  const DeploymentInfo* info = DeploymentRegistry::Get().FindByName(name);
  if (info == nullptr) {
    return false;
  }
  *out = info->kind;
  return true;
}

}  // namespace draconis::cluster
