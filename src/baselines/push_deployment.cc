#include "baselines/push_deployment.h"

#include <utility>

#include "baselines/malcolm.h"
#include "baselines/r2p2.h"
#include "common/check.h"

namespace draconis::baselines {

PushDeployment::PushDeployment(const cluster::ExperimentConfig& config, PushRule rule,
                               IntraNodePolicy dispatcher)
    : cluster::SchedulerDeployment(config), rule_(rule), dispatcher_(dispatcher) {}

void PushDeployment::Build(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  size_t targets = cfg.num_workers;
  if (rule_ == PushRule::kJbsq) {
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
  pipeline_ = std::make_unique<p4::SwitchPipeline>(testbed, program_.get(), p4::PipelineConfig{});
  scheduler_nodes_.push_back(pipeline_->node_id());
}

void PushDeployment::WireWorkers(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  const size_t targets_per_worker = program_->num_targets() / cfg.num_workers;
  for (size_t w = 0; w < cfg.num_workers; ++w) {
    const auto node = static_cast<uint32_t>(w);
    if (rule_ == PushRule::kJbsq) {
      workers_.push_back(std::make_unique<R2P2Worker>(&testbed, cfg.executors_per_worker, node,
                                                      scheduler_nodes_[0]));
    } else {
      // The latency-aware rule steers by the sojourns the credits carry.
      workers_.push_back(std::make_unique<RackSchedWorker>(
          &testbed, cfg.executors_per_worker, node, scheduler_nodes_[0], dispatcher_,
          /*report_latency=*/rule_ == PushRule::kLatencyAware));
    }
    for (size_t t = w * targets_per_worker; t < (w + 1) * targets_per_worker; ++t) {
      program_->BindTarget(t, workers_.back()->node_id());
    }
  }
}

void PushDeployment::ConfigureClient(cluster::ClientConfig& client) {
  client.max_tasks_per_packet = 1;  // the kind is one_task_per_packet (PushDeploymentInfo)
}

void PushDeployment::Harvest(cluster::ExperimentResult& result) {
  pipeline_->CheckConservation();
  program_->CheckConservation();
  result.switch_counters += pipeline_->counters();
  result.recirc_drops = result.switch_counters.recirc_drops;
  result.counters += program_->counters();
}

cluster::DeploymentInfo PushDeploymentInfo(cluster::SchedulerKind kind, const char* canonical_name,
                                           const char* flag_name, PushRule rule,
                                           IntraNodePolicy dispatcher) {
  DRACONIS_CHECK(rule != PushRule::kJbsq || dispatcher == IntraNodePolicy::kFcfs);
  cluster::DeploymentInfo info;
  info.kind = kind;
  info.canonical_name = canonical_name;
  info.flag_name = flag_name;
  info.policies = {cluster::PolicyKind::kFcfs};
  // Each push sends a packet's task to one target, so push schedulers route
  // one task per packet.
  info.one_task_per_packet = true;
  info.make = [rule, dispatcher](const cluster::ExperimentConfig& config) {
    return std::make_unique<PushDeployment>(config, rule, dispatcher);
  };
  return info;
}

}  // namespace draconis::baselines
