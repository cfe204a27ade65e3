#include "baselines/central_server_deployment.h"

#include <utility>

namespace draconis::baselines {

CentralServerDeployment::CentralServerDeployment(const cluster::ExperimentConfig& config,
                                                 CentralServerConfig::Transport transport)
    : cluster::PullBasedDeployment(config), transport_(transport) {}

void CentralServerDeployment::Build(cluster::Testbed& testbed) {
  CentralServerConfig sc;
  sc.transport = transport_;
  server_ = std::make_unique<CentralServerScheduler>(&testbed, sc);
  scheduler_nodes_.push_back(server_->node_id());
}

void CentralServerDeployment::Harvest(cluster::ExperimentResult& result) {
  result.counters += server_->counters();
}

cluster::DeploymentInfo DpdkServerDeploymentInfo() {
  cluster::DeploymentInfo info;
  info.kind = cluster::SchedulerKind::kDraconisDpdkServer;
  info.canonical_name = "Draconis-DPDK-Server";
  info.flag_name = "dpdk-server";
  info.policies = {cluster::PolicyKind::kFcfs};
  info.make = [](const cluster::ExperimentConfig& config) {
    return std::make_unique<CentralServerDeployment>(config,
                                                     CentralServerConfig::Transport::kDpdk);
  };
  return info;
}

cluster::DeploymentInfo SocketServerDeploymentInfo() {
  cluster::DeploymentInfo info;
  info.kind = cluster::SchedulerKind::kDraconisSocketServer;
  info.canonical_name = "Draconis-Socket-Server";
  info.flag_name = "socket-server";
  info.policies = {cluster::PolicyKind::kFcfs};
  info.make = [](const cluster::ExperimentConfig& config) {
    return std::make_unique<CentralServerDeployment>(
        config, CentralServerConfig::Transport::kSocket);
  };
  return info;
}

}  // namespace draconis::baselines
