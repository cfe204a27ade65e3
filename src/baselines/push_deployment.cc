#include "baselines/push_deployment.h"

#include <utility>

#include "baselines/malcolm.h"
#include "baselines/r2p2.h"
#include "baselines/racksched.h"

namespace draconis::baselines {

PushDeployment::PushDeployment(const cluster::ExperimentConfig& config, PushRule rule,
                               PushWorker worker)
    : cluster::SchedulerDeployment(config), rule_(rule), worker_(worker) {}

void PushDeployment::Build(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  size_t targets = cfg.num_workers;
  if (worker_ == PushWorker::kExecutorQueues) {
    targets *= cfg.executors_per_worker;
  }
  switch (rule_) {
    case PushRule::kJbsq:
      program_ = std::make_unique<R2P2Program>(targets, cfg.jbsq_k);
      break;
    case PushRule::kPowerOfTwo:
      program_ = std::make_unique<RackSchedProgram>(
          targets, testbed.SeedFor(cluster::SeedDomain::kRackSched));
      break;
    case PushRule::kLatencyAware:
      program_ = std::make_unique<MalcolmProgram>(targets);
      break;
  }
  program_->SetRecorder(testbed.recorder());
  pipeline_ = std::make_unique<p4::SwitchPipeline>(testbed, program_.get(), cfg.pipeline);
  scheduler_nodes_.push_back(pipeline_->node_id());
}

void PushDeployment::WireWorkers(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  const size_t targets_per_worker = program_->num_targets() / cfg.num_workers;
  for (size_t w = 0; w < cfg.num_workers; ++w) {
    const auto node = static_cast<uint32_t>(w);
    if (worker_ == PushWorker::kExecutorQueues) {
      workers_.push_back(std::make_unique<R2P2Worker>(&testbed, cfg.executors_per_worker, node,
                                                      scheduler_nodes_[0]));
    } else {
      const IntraNodePolicy policy = worker_ == PushWorker::kEdfNodeDispatcher
                                         ? IntraNodePolicy::kEdf
                                         : cfg.racksched_intra_policy;
      // The latency-aware rule steers by the sojourns the credits carry.
      workers_.push_back(std::make_unique<RackSchedWorker>(
          &testbed, cfg.executors_per_worker, node, scheduler_nodes_[0], policy,
          /*report_latency=*/rule_ == PushRule::kLatencyAware));
    }
    for (size_t t = w * targets_per_worker; t < (w + 1) * targets_per_worker; ++t) {
      program_->BindTarget(t, workers_.back()->node_id());
    }
  }
}

void PushDeployment::ConfigureClient(cluster::ClientConfig& client) {
  if (client.max_tasks_per_packet == 0) {
    client.max_tasks_per_packet = 1;  // push schedulers route one task per packet
  }
}

void PushDeployment::Harvest(cluster::ExperimentResult& result) {
  pipeline_->CheckConservation();
  program_->CheckConservation();
  result.switch_counters = pipeline_->counters();
  result.recirculation_share = result.switch_counters.RecirculationShare();
  result.recirc_drops = result.switch_counters.recirc_drops;

  const PushCounters& c = program_->counters();
  result.counters.tasks_pushed = c.tasks_pushed;
  result.counters.credits = c.credits;
  result.counters.credit_wait_recirculations = c.credit_wait_recirculations;
}

cluster::DeploymentInfo PushDeploymentInfo(cluster::SchedulerKind kind, const char* canonical_name,
                                           const char* flag_name, PushRule rule,
                                           PushWorker worker) {
  cluster::DeploymentInfo info;
  info.kind = kind;
  info.canonical_name = canonical_name;
  info.flag_name = flag_name;
  info.policies = {cluster::PolicyKind::kFcfs};
  info.make = [rule, worker](const cluster::ExperimentConfig& config) {
    return std::make_unique<PushDeployment>(config, rule, worker);
  };
  return info;
}

}  // namespace draconis::baselines
