#include "baselines/r2p2_deployment.h"

#include <utility>

namespace draconis::baselines {

R2P2Deployment::R2P2Deployment(const cluster::ExperimentConfig& config)
    : cluster::SchedulerDeployment(config) {}

void R2P2Deployment::Build(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  R2P2Config rc;
  rc.num_executors = cfg.num_workers * cfg.executors_per_worker;
  rc.jbsq_k = cfg.jbsq_k;
  program_ = std::make_unique<R2P2Program>(rc);
  pipeline_ = std::make_unique<p4::SwitchPipeline>(testbed, program_.get(), cfg.pipeline);
  scheduler_nodes_.push_back(pipeline_->node_id());
}

void R2P2Deployment::WireWorkers(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  for (size_t w = 0; w < cfg.num_workers; ++w) {
    std::vector<size_t> slots;
    for (size_t e = 0; e < cfg.executors_per_worker; ++e) {
      slots.push_back(w * cfg.executors_per_worker + e);
    }
    workers_.push_back(std::make_unique<R2P2Worker>(&testbed, slots, static_cast<uint32_t>(w),
                                                    scheduler_nodes_[0]));
    for (size_t slot : slots) {
      program_->BindExecutor(slot, workers_.back()->node_id());
    }
  }
}

void R2P2Deployment::ConfigureClient(cluster::ClientConfig& client) {
  if (client.max_tasks_per_packet == 0) {
    client.max_tasks_per_packet = 1;  // R2P2 routes one RPC per packet
  }
}

void R2P2Deployment::Harvest(cluster::ExperimentResult& result) {
  pipeline_->CheckConservation();
  result.switch_counters = pipeline_->counters();
  result.recirculation_share = result.switch_counters.RecirculationShare();
  result.recirc_drops = result.switch_counters.recirc_drops;

  const R2P2Counters& c = program_->counters();
  result.counters.tasks_pushed = c.tasks_pushed;
  result.counters.credit_wait_recirculations = c.credit_wait_recirculations;
  result.counters.credits = c.credits;
}

cluster::DeploymentInfo R2P2DeploymentInfo() {
  cluster::DeploymentInfo info;
  info.kind = cluster::SchedulerKind::kR2P2;
  info.canonical_name = "R2P2";
  info.flag_name = "r2p2";
  info.policies = {cluster::PolicyKind::kFcfs};
  info.make = [](const cluster::ExperimentConfig& config) {
    return std::make_unique<R2P2Deployment>(config);
  };
  return info;
}

}  // namespace draconis::baselines
