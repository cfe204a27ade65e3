// Deploys the push-based baselines — R2P2, RackSched, RackSched-EDF and the
// Malcolm-style balancer — on a Testbed: one PushProgram running the kind's
// selection rule on a SwitchPipeline, plus the workers that host its targets.
// The push counterpart of cluster::PullBasedDeployment: a registry entry
// names only its rule and its worker (cluster/deployment.cc).

#ifndef DRACONIS_BASELINES_PUSH_DEPLOYMENT_H_
#define DRACONIS_BASELINES_PUSH_DEPLOYMENT_H_

#include <memory>
#include <vector>

#include "baselines/push_program.h"
#include "cluster/deployment.h"
#include "cluster/task_runner.h"
#include "p4/pipeline.h"

namespace draconis::baselines {

// The switch program's selection rule.
enum class PushRule {
  kJbsq,          // R2P2Program: stale-view JBSQ(k), recirculate when full
  kPowerOfTwo,    // RackSchedProgram: power-of-two choices
  kLatencyAware,  // MalcolmProgram: (outstanding + 1) x mean sojourn
};

// The worker that hosts the program's targets.
enum class PushWorker {
  kExecutorQueues,     // R2P2Worker: a bounded FIFO, and a target, per executor
  kNodeDispatcher,     // RackSchedWorker under config.racksched_intra_policy:
                       // a target per node
  kEdfNodeDispatcher,  // RackSchedWorker under the EDF dispatcher
};

class PushDeployment : public cluster::SchedulerDeployment {
 public:
  PushDeployment(const cluster::ExperimentConfig& config, PushRule rule, PushWorker worker);

  void Build(cluster::Testbed& testbed) override;
  void WireWorkers(cluster::Testbed& testbed) override;
  void ConfigureClient(cluster::ClientConfig& client) override;
  void Harvest(cluster::ExperimentResult& result) override;

 private:
  PushRule rule_;
  PushWorker worker_;
  std::unique_ptr<PushProgram> program_;
  std::unique_ptr<p4::SwitchPipeline> pipeline_;
  std::vector<std::unique_ptr<cluster::TaskRunner>> workers_;
};

cluster::DeploymentInfo PushDeploymentInfo(cluster::SchedulerKind kind, const char* canonical_name,
                                           const char* flag_name, PushRule rule,
                                           PushWorker worker);

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_PUSH_DEPLOYMENT_H_
