#include "baselines/malcolm_deployment.h"

#include <utility>

namespace draconis::baselines {

MalcolmDeployment::MalcolmDeployment(const cluster::ExperimentConfig& config)
    : cluster::SchedulerDeployment(config) {}

void MalcolmDeployment::Build(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  MalcolmConfig mc;
  mc.num_nodes = cfg.num_workers;
  program_ = std::make_unique<MalcolmProgram>(mc);
  pipeline_ = std::make_unique<p4::SwitchPipeline>(testbed, program_.get(), cfg.pipeline);
  scheduler_nodes_.push_back(pipeline_->node_id());
}

void MalcolmDeployment::WireWorkers(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  for (size_t w = 0; w < cfg.num_workers; ++w) {
    // The same two-layer worker as RackSched (so the intra-node overheads are
    // comparable), with sojourn reporting on so the switch sees latencies.
    workers_.push_back(std::make_unique<RackSchedWorker>(
        &testbed, cfg.executors_per_worker, static_cast<uint32_t>(w), scheduler_nodes_[0],
        TimeNs{3500}, TimeNs{200}, cfg.racksched_intra_policy, /*report_latency=*/true));
    program_->BindNode(w, workers_.back()->node_id());
  }
}

void MalcolmDeployment::ConfigureClient(cluster::ClientConfig& client) {
  if (client.max_tasks_per_packet == 0) {
    client.max_tasks_per_packet = 1;  // one task per packet, like RackSched
  }
}

void MalcolmDeployment::Harvest(cluster::ExperimentResult& result) {
  pipeline_->CheckConservation();
  result.switch_counters = pipeline_->counters();
  result.recirculation_share = result.switch_counters.RecirculationShare();
  result.recirc_drops = result.switch_counters.recirc_drops;

  const MalcolmCounters& c = program_->counters();
  result.counters.tasks_pushed = c.tasks_pushed;
  result.counters.credits = c.credits;
}

cluster::DeploymentInfo MalcolmDeploymentInfo() {
  cluster::DeploymentInfo info;
  info.kind = cluster::SchedulerKind::kMalcolm;
  info.canonical_name = "Malcolm";
  info.flag_name = "malcolm";
  info.policies = {cluster::PolicyKind::kFcfs};
  info.make = [](const cluster::ExperimentConfig& config) {
    return std::make_unique<MalcolmDeployment>(config);
  };
  return info;
}

}  // namespace draconis::baselines
