#include "baselines/sparrow_deployment.h"

#include <algorithm>
#include <utility>

namespace draconis::baselines {

SparrowDeployment::SparrowDeployment(const cluster::ExperimentConfig& config)
    : cluster::SchedulerDeployment(config) {}

void SparrowDeployment::Build(cluster::Testbed& testbed) {
  SparrowConfig sc;
  for (size_t s = 0; s < std::max<size_t>(1, config().num_schedulers); ++s) {
    sc.seed = testbed.SeedFor(cluster::SeedDomain::kSparrow, s);
    schedulers_.push_back(std::make_unique<SparrowScheduler>(&testbed, sc));
    scheduler_nodes_.push_back(schedulers_.back()->node_id());
  }
}

void SparrowDeployment::WireWorkers(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  std::vector<net::NodeId> worker_nodes;
  for (size_t w = 0; w < cfg.num_workers; ++w) {
    workers_.push_back(std::make_unique<SparrowWorker>(&testbed, cfg.executors_per_worker,
                                                       static_cast<uint32_t>(w)));
    worker_nodes.push_back(workers_.back()->node_id());
  }
  for (auto& scheduler : schedulers_) {
    scheduler->SetWorkers(worker_nodes);
  }
}

void SparrowDeployment::ConfigureClient(cluster::ClientConfig& client) {
  // Sparrow's clients live on the same optimized-sockets stack as its
  // schedulers.
  client.host_profile = SparrowConfig::Profile();
}

void SparrowDeployment::Harvest(cluster::ExperimentResult& result) {
  for (const auto& s : schedulers_) {
    result.counters += s->counters();
  }
}

cluster::DeploymentInfo SparrowDeploymentInfo() {
  cluster::DeploymentInfo info;
  info.kind = cluster::SchedulerKind::kSparrow;
  info.canonical_name = "Sparrow";
  info.flag_name = "sparrow";
  info.policies = {cluster::PolicyKind::kFcfs};
  info.multi_scheduler = true;
  info.make = [](const cluster::ExperimentConfig& config) {
    return std::make_unique<SparrowDeployment>(config);
  };
  return info;
}

}  // namespace draconis::baselines
