// The scheduler-deployment seam.
//
// A SchedulerDeployment packages everything that is specific to one
// SchedulerKind — how the scheduler is constructed on a Testbed, how its
// worker side is wired, which client quirks it needs, and how its counters
// are harvested — behind one interface, so RunExperiment stays a kind-blind
// orchestrator and adding a scheduler means adding one deployment file pair
// next to the scheduler, or, for a push-based kind, a selection rule that
// baselines::PushDeployment runs (see DESIGN.md §"Testbed & deployments").
//
// Deployments register in the DeploymentRegistry, which is the single source
// of truth for scheduler-kind names (SchedulerKindName/FromName), the bench
// --scheduler flag choices, the policies each kind honors, and the factory
// RunExperiment resolves kinds through.

#ifndef DRACONIS_CLUSTER_DEPLOYMENT_H_
#define DRACONIS_CLUSTER_DEPLOYMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/executor.h"
#include "cluster/experiment.h"
#include "cluster/testbed.h"
#include "net/network.h"

namespace draconis::cluster {

// One scheduler kind deployed on a testbed. Lifecycle (driven by
// RunExperiment, in order): Build -> WireWorkers -> ConfigureClient (once per
// client) -> [simulation runs] -> Harvest.
class SchedulerDeployment {
 public:
  virtual ~SchedulerDeployment() = default;

  // Constructs the scheduler component(s) and registers them on the fabric.
  // Must leave at least one address in scheduler_nodes().
  virtual void Build(Testbed& testbed) = 0;

  // Constructs and wires the worker side (pull-based executor fleets or the
  // baselines' push-based worker endpoints).
  virtual void WireWorkers(Testbed& testbed) = 0;

  // Applies kind-specific client quirks (packetization, host profile).
  // `client` arrives pre-filled with the kind-agnostic settings.
  virtual void ConfigureClient(ClientConfig& client) { (void)client; }

  // Adds each scheduler instance's counters into the flat result aggregate
  // (and, for switch-hosted kinds, its pipeline counters). `result` starts
  // zeroed; RunExperiment calls this once.
  virtual void Harvest(ExperimentResult& result) { (void)result; }

  // Scheduling decisions made so far — the quantity the no-op throughput
  // benches (Fig. 5b) delta across the measurement window. Defaults to
  // completed executions; pull-based kinds add the tasks their no-op
  // executors dropped.
  virtual uint64_t DecisionCount(Testbed& testbed) const {
    return testbed.metrics()->total_node_completions();
  }

  // Fabric addresses of the worker-side endpoints, in wiring order; the
  // fault injector resolves `executor` node references through this. Kinds
  // whose worker side is not individually addressable return empty.
  virtual std::vector<net::NodeId> WorkerNodes() const { return {}; }

  // §3.3 failover: promote the standby scheduler after the active instance
  // was disconnected by a fault plan. Implementations must swap the standby
  // into scheduler_nodes()[0] and rehome their worker side; clients rehome on
  // their own through timeouts. Returns false when the kind has no standby
  // (the default); plans requesting a failover are rejected for such kinds by
  // ExperimentConfig::Validate (see DeploymentInfo::failover).
  virtual bool Failover(Testbed& testbed) {
    (void)testbed;
    return false;
  }

  // Hands every idle poll train a fast-forward has parked back to its
  // executor (see core/poll_roster.h). The fault injector calls it before
  // every fault action; kinds that park nothing keep the default no-op.
  virtual void WakeIdlePollers() {}

  // Fabric addresses of the scheduler instances; clients are assigned
  // round-robin across them.
  const std::vector<net::NodeId>& scheduler_nodes() const { return scheduler_nodes_; }

  // Standby scheduler addresses (non-empty only when the deployment built a
  // standby for a failover plan); clients arm their rehome fallback with [0].
  const std::vector<net::NodeId>& standby_nodes() const { return standby_nodes_; }

 protected:
  explicit SchedulerDeployment(const ExperimentConfig& config) : config_(&config) {}

  const ExperimentConfig& config() const { return *config_; }

  std::vector<net::NodeId> scheduler_nodes_;
  std::vector<net::NodeId> standby_nodes_;

 private:
  const ExperimentConfig* config_;
};

// Shared worker side of the pull-based kinds (the Draconis switch and the
// central servers): one Executor per worker core, started with staggered
// initial pulls toward its rack's scheduler address. Legacy (no
// ClusterTopology) configs wire one rack toward scheduler_nodes()[0];
// multi-rack configs expect one scheduler per rack, in rack order.
class PullBasedDeployment : public SchedulerDeployment {
 public:
  void WireWorkers(Testbed& testbed) override;
  uint64_t DecisionCount(Testbed& testbed) const override;
  std::vector<net::NodeId> WorkerNodes() const override;

 protected:
  using SchedulerDeployment::SchedulerDeployment;

  // §3.3: point one rack's executor fleet at `scheduler` (each executor's
  // pull watchdog re-issues any request lost to the failed switch), whose
  // poll roster is `parking` (nullable). Legacy single-switch configs are
  // rack 0.
  void RehomeRackExecutors(Testbed& testbed, size_t rack, net::NodeId scheduler,
                           PollParking* parking);

  // The roster that may park idle polls toward rack `rack`'s scheduler
  // (nullable, the default: every poll runs as events).
  virtual PollParking* ParkingFor(size_t rack) {
    (void)rack;
    return nullptr;
  }

 private:
  // The policy-specific executor property word (EXEC_RSRC bitmap for the
  // resource policy, the worker-node id for locality).
  uint32_t ExecPropsFor(size_t worker) const;

  std::vector<std::unique_ptr<Executor>> executors_;
  // rack r's executors are [rack_first_executor_[r], rack_first_executor_[r+1]).
  std::vector<size_t> rack_first_executor_;
};

using DeploymentFactory =
    std::function<std::unique_ptr<SchedulerDeployment>(const ExperimentConfig&)>;

// Registry metadata for one scheduler kind.
struct DeploymentInfo {
  SchedulerKind kind;
  // Canonical display name ("Draconis", "R2P2", ...). Parsed
  // case-insensitively by SchedulerKindFromName.
  const char* canonical_name;
  // The --scheduler flag spelling ("draconis", "dpdk-server", ...).
  const char* flag_name;
  // PolicyKinds this kind honors; any other policy is a config error.
  std::vector<PolicyKind> policies;
  // Switch queueing disciplines the kind supports. Every kind runs the
  // implicit FIFO; only PIFO-capable kinds (the in-network Draconis) list
  // the rank-ordered family (docs/pifo.md). Drives the --switch-policy flag
  // validation and the list_schedulers --switch-policies output.
  std::vector<core::SwitchPolicy> switch_policies = {core::SwitchPolicy::kFifo};
  // Whether num_schedulers > 1 deploys replicated instances (Sparrow).
  bool multi_scheduler = false;
  // Whether the kind can build a standby and honor a §3.3 scheduler_failover
  // fault event (currently only the in-network Draconis deployment).
  bool failover = false;
  // Whether the kind can deploy one scheduler instance per rack of a
  // multi-rack ClusterTopology (docs/topology.md); configs with
  // cluster.enabled() are rejected for other kinds by Validate.
  bool multi_rack = false;
  // Whether the scheduler routes one task per packet (the push kinds):
  // Validate refuses a larger max_tasks_per_packet.
  bool one_task_per_packet = false;
  DeploymentFactory make;
};

class DeploymentRegistry {
 public:
  // The process-wide registry, built once from the per-scheduler
  // registration functions.
  static const DeploymentRegistry& Get();

  // Registration order, which is also the canonical enumeration order.
  const std::vector<DeploymentInfo>& all() const { return infos_; }

  const DeploymentInfo& Info(SchedulerKind kind) const;

  // Case-insensitive lookup by canonical or flag name; nullptr when unknown.
  const DeploymentInfo* FindByName(const std::string& name) const;

  // The --scheduler flag spellings, in registration order.
  std::vector<std::string> FlagChoices() const;

  std::unique_ptr<SchedulerDeployment> Make(const ExperimentConfig& config) const;

 private:
  DeploymentRegistry();

  std::vector<DeploymentInfo> infos_;
};

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_DEPLOYMENT_H_
