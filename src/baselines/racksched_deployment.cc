#include "baselines/racksched_deployment.h"

#include <utility>

namespace draconis::baselines {

RackSchedDeployment::RackSchedDeployment(const cluster::ExperimentConfig& config)
    : cluster::SchedulerDeployment(config) {}

RackSchedDeployment::RackSchedDeployment(const cluster::ExperimentConfig& config,
                                         IntraNodePolicy policy)
    : cluster::SchedulerDeployment(config), force_policy_(true), forced_policy_(policy) {}

void RackSchedDeployment::Build(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  RackSchedConfig rc;
  rc.num_nodes = cfg.num_workers;
  rc.seed = testbed.SeedFor(cluster::SeedDomain::kRackSched);
  program_ = std::make_unique<RackSchedProgram>(rc);
  pipeline_ = std::make_unique<p4::SwitchPipeline>(testbed, program_.get(), cfg.pipeline);
  scheduler_nodes_.push_back(pipeline_->node_id());
}

void RackSchedDeployment::WireWorkers(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  const IntraNodePolicy policy =
      force_policy_ ? forced_policy_ : cfg.racksched_intra_policy;
  for (size_t w = 0; w < cfg.num_workers; ++w) {
    workers_.push_back(std::make_unique<RackSchedWorker>(
        &testbed, cfg.executors_per_worker, static_cast<uint32_t>(w), scheduler_nodes_[0],
        TimeNs{3500}, TimeNs{200}, policy));
    program_->BindNode(w, workers_.back()->node_id());
  }
}

void RackSchedDeployment::ConfigureClient(cluster::ClientConfig& client) {
  if (client.max_tasks_per_packet == 0) {
    client.max_tasks_per_packet = 1;  // RackSched routes one task per packet
  }
}

void RackSchedDeployment::Harvest(cluster::ExperimentResult& result) {
  pipeline_->CheckConservation();
  result.switch_counters = pipeline_->counters();
  result.recirculation_share = result.switch_counters.RecirculationShare();
  result.recirc_drops = result.switch_counters.recirc_drops;

  const RackSchedCounters& c = program_->counters();
  result.counters.tasks_pushed = c.tasks_pushed;
  result.counters.credits = c.credits;
}

cluster::DeploymentInfo RackSchedDeploymentInfo() {
  cluster::DeploymentInfo info;
  info.kind = cluster::SchedulerKind::kRackSched;
  info.canonical_name = "RackSched";
  info.flag_name = "racksched";
  info.policies = {cluster::PolicyKind::kFcfs};
  info.make = [](const cluster::ExperimentConfig& config) {
    return std::make_unique<RackSchedDeployment>(config);
  };
  return info;
}

cluster::DeploymentInfo RackSchedEdfDeploymentInfo() {
  cluster::DeploymentInfo info;
  info.kind = cluster::SchedulerKind::kRackSchedEdf;
  info.canonical_name = "RackSched-EDF";
  info.flag_name = "racksched-edf";
  info.policies = {cluster::PolicyKind::kFcfs};
  info.make = [](const cluster::ExperimentConfig& config) {
    return std::make_unique<RackSchedDeployment>(config, IntraNodePolicy::kEdf);
  };
  return info;
}

}  // namespace draconis::baselines
