// Deploys the push-based baselines — R2P2, RackSched, RackSched-EDF,
// RackSched-PS and the Malcolm-style balancer — on a Testbed: one PushProgram
// running the kind's selection rule on a SwitchPipeline, plus the workers that
// host its targets. The push counterpart of cluster::PullBasedDeployment: a
// registry entry names only its rule and its node dispatcher
// (cluster/deployment.cc).

#ifndef DRACONIS_BASELINES_PUSH_DEPLOYMENT_H_
#define DRACONIS_BASELINES_PUSH_DEPLOYMENT_H_

#include <memory>
#include <vector>

#include "baselines/push_program.h"
#include "baselines/racksched.h"
#include "cluster/deployment.h"
#include "cluster/task_runner.h"
#include "p4/pipeline.h"

namespace draconis::baselines {

// The switch program's selection rule, which also picks the worker that
// hosts its targets.
enum class PushRule {
  kJbsq,          // R2P2Program over R2P2Workers: a bounded FIFO, and a target,
                  // per executor
  kPowerOfTwo,    // RackSchedProgram over RackSchedWorkers: a target per node
  kLatencyAware,  // MalcolmProgram: (outstanding + 1) x mean sojourn, over
                  // RackSchedWorkers that report their sojourns
};

class PushDeployment : public cluster::SchedulerDeployment {
 public:
  // `dispatcher` is the RackSchedWorkers' intra-node policy; JBSQ's
  // per-executor queues are FIFO, so kJbsq takes kFcfs only.
  PushDeployment(const cluster::ExperimentConfig& config, PushRule rule,
                 IntraNodePolicy dispatcher);

  void Build(cluster::Testbed& testbed) override;
  void WireWorkers(cluster::Testbed& testbed) override;
  void ConfigureClient(cluster::ClientConfig& client) override;
  void Harvest(cluster::ExperimentResult& result) override;

 private:
  PushRule rule_;
  IntraNodePolicy dispatcher_;
  std::unique_ptr<PushProgram> program_;
  std::unique_ptr<p4::SwitchPipeline> pipeline_;
  std::vector<std::unique_ptr<cluster::TaskRunner>> workers_;
};

cluster::DeploymentInfo PushDeploymentInfo(cluster::SchedulerKind kind, const char* canonical_name,
                                           const char* flag_name, PushRule rule,
                                           IntraNodePolicy dispatcher);

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_PUSH_DEPLOYMENT_H_
