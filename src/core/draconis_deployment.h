// Deploys the Draconis in-network scheduler (the DraconisProgram on a
// SwitchPipeline, plus the pull-based executor fleet) on a Testbed. Lives
// next to the scheduler it deploys; registered in the DeploymentRegistry
// (cluster/deployment.cc).
//
// With a multi-rack ClusterTopology (docs/topology.md) the deployment builds
// one switch instance per rack (each rack's ToR runs its own pipeline,
// program, and — in PIFO mode — rank function), plus the cross-rack
// placement runtime: per-rack depth directories, summary exchanges and
// publishers, and the submission routers clients consult per packet.

#ifndef DRACONIS_CORE_DRACONIS_DEPLOYMENT_H_
#define DRACONIS_CORE_DRACONIS_DEPLOYMENT_H_

#include <memory>
#include <vector>

#include "cluster/deployment.h"
#include "core/draconis_program.h"
#include "core/policy.h"
#include "core/poll_roster.h"
#include "p4/pipeline.h"
#include "topology/fabric.h"
#include "topology/placement.h"

namespace draconis::core {

class DraconisDeployment : public cluster::PullBasedDeployment {
 public:
  explicit DraconisDeployment(const cluster::ExperimentConfig& config);

  void Build(cluster::Testbed& testbed) override;
  void ConfigureClient(cluster::ClientConfig& client) override;
  void Harvest(cluster::ExperimentResult& result) override;
  bool Failover(cluster::Testbed& testbed) override;
  void WakeIdlePollers() override;

 protected:
  cluster::PollParking* ParkingFor(size_t rack) override { return racks_[rack].roster.get(); }

 private:
  // One scheduler instance: a policy, the rank function (PIFO mode only),
  // the program running them, the pipeline hosting the program, and the
  // roster that parks idle polls to it (when its polls are pure). One per
  // rack, plus a cold standby when a §3.3 fault plan asks for a failover.
  struct Instance {
    std::unique_ptr<SchedulingPolicy> policy;
    std::unique_ptr<RankFunction> rank_function;
    std::unique_ptr<DraconisProgram> program;
    std::unique_ptr<p4::SwitchPipeline> pipeline;
    std::unique_ptr<PollRoster> roster;  // null: polls run as events
  };

  // Every instance built, racks first, then the standby (if any).
  std::vector<const Instance*> AllInstances() const;

  Instance BuildInstance(cluster::Testbed& testbed);

  // The per-rack instances; racks_[0] is the legacy single-switch active
  // instance.
  std::vector<Instance> racks_;
  // §3.3 standby for rack 0's ToR. Starts empty (queue state is *not*
  // replicated: the single-access register model has no cross-switch
  // mirroring primitive, so queued state on the failed switch is
  // reconstructed by client timeout resubmission — safe because duplicate
  // completions are suppressed, §8.3).
  Instance standby_;

  // Cross-rack placement runtime; all empty unless the topology has >= 2
  // racks (a 1-rack topology registers no extra endpoints and schedules no
  // extra events, which is what keeps it bit-identical to the legacy
  // single-switch layout).
  std::vector<std::unique_ptr<topology::DepthDirectory>> directories_;
  std::vector<std::unique_ptr<topology::SummaryExchange>> exchanges_;
  std::vector<std::unique_ptr<topology::SummaryPublisher>> publishers_;
  std::vector<std::unique_ptr<topology::PlacementPolicy>> policies_;
  std::vector<std::unique_ptr<topology::SubmissionRouter>> routers_;

  uint64_t failovers_ = 0;
};

cluster::DeploymentInfo DraconisDeploymentInfo();

}  // namespace draconis::core

#endif  // DRACONIS_CORE_DRACONIS_DEPLOYMENT_H_
