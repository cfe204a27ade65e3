#include "core/draconis_deployment.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace draconis::core {

DraconisDeployment::DraconisDeployment(const cluster::ExperimentConfig& config)
    : cluster::PullBasedDeployment(config) {}

DraconisDeployment::Instance DraconisDeployment::BuildInstance(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  Instance inst;
  switch (cfg.policy) {
    case cluster::PolicyKind::kFcfs:
      inst.policy = std::make_unique<FcfsPolicy>();
      break;
    case cluster::PolicyKind::kPriority:
      inst.policy = std::make_unique<PriorityPolicy>(cfg.priority_levels);
      break;
    case cluster::PolicyKind::kResource:
      inst.policy = std::make_unique<ResourcePolicy>();
      break;
    case cluster::PolicyKind::kLocality:
      inst.policy = std::make_unique<LocalityPolicy>(&testbed.topology(), LocalityPolicy::Limits{});
      break;
  }
  DraconisConfig dc;
  dc.queue_capacity = cfg.queue_capacity;
  dc.shadow_copy_dequeue = cfg.shadow_copy_dequeue;
  // PIFO mode (docs/pifo.md): a non-FIFO switch policy swaps the circular
  // queue for a rank-ordered PIFO; Validate() already pinned policy == fcfs.
  RankFunctionConfig rank_config;
  rank_config.wfq_weights = cfg.wfq_weights;
  inst.rank_function = MakeRankFunction(cfg.switch_policy, rank_config);
  inst.program = std::make_unique<DraconisProgram>(inst.policy.get(), dc, nullptr,
                                                   inst.rank_function.get());
  inst.program->SetRecorder(testbed.recorder());
  inst.pipeline = std::make_unique<p4::SwitchPipeline>(testbed, inst.program.get(),
                                                       p4::PipelineConfig{});
  if (PollRoster::Supports(*inst.program)) {
    inst.roster = std::make_unique<PollRoster>(&testbed.simulator(), &testbed.network(),
                                               inst.pipeline.get(), inst.program.get());
  }
  return inst;
}

void DraconisDeployment::Build(cluster::Testbed& testbed) {
  const cluster::ExperimentConfig& cfg = config();
  const std::vector<topology::RackSpec> specs = cluster::EffectiveRackSpecs(cfg);
  const size_t num_racks = specs.size();
  const bool multi_rack = num_racks > 1;

  // One ToR switch per rack, in rack order (the node-id order the
  // determinism goldens pin).
  racks_.reserve(num_racks);
  for (size_t r = 0; r < num_racks; ++r) {
    racks_.push_back(BuildInstance(testbed));
    const net::NodeId tor = racks_[r].pipeline->node_id();
    scheduler_nodes_.push_back(tor);
    if (multi_rack) {
      testbed.network().SetNodeRack(tor, static_cast<uint32_t>(r));
    }
  }

  // The standby is built only when a fault plan will promote it, so fault-free
  // configs keep the exact node-id assignment order (and thus results) they
  // had before the fault layer existed. It protects rack 0's ToR.
  if (cfg.fault_plan.has_scheduler_failover()) {
    standby_ = BuildInstance(testbed);
    standby_nodes_.push_back(standby_.pipeline->node_id());
  }

  if (!multi_rack) {
    return;
  }

  // Cross-rack placement runtime (docs/topology.md). Registration order —
  // ToRs, standby, then the summary exchanges — is part of the pinned
  // multi-rack node-id layout.
  directories_.reserve(num_racks);
  exchanges_.reserve(num_racks);
  for (size_t r = 0; r < num_racks; ++r) {
    directories_.push_back(std::make_unique<topology::DepthDirectory>(num_racks));
  }
  for (size_t r = 0; r < num_racks; ++r) {
    exchanges_.push_back(
        std::make_unique<topology::SummaryExchange>(&testbed.network(), directories_[r].get()));
    testbed.network().SetNodeRack(exchanges_[r]->node_id(), static_cast<uint32_t>(r));
  }
  for (size_t r = 0; r < num_racks; ++r) {
    routers_.push_back(std::make_unique<topology::SubmissionRouter>(
        static_cast<uint32_t>(r), &scheduler_nodes_, directories_[r].get(),
        testbed.SeedFor(cluster::SeedDomain::kPlacement, r)));
  }
  for (size_t r = 0; r < num_racks; ++r) {
    DraconisProgram* program = racks_[r].program.get();
    publishers_.push_back(std::make_unique<topology::SummaryPublisher>(
        &testbed.simulator(), &testbed.network(), static_cast<uint32_t>(r),
        racks_[r].pipeline->node_id(), [program] { return program->cp_queue_depth(); }));
    publishers_[r]->SetLocalDirectory(directories_[r].get());
    for (size_t s = 0; s < num_racks; ++s) {
      if (s != r) {
        publishers_[r]->AddSubscriber(exchanges_[s]->node_id());
      }
    }
    // Stagger first publishes so the racks' broadcasts don't arrive in
    // lockstep (the offset is deterministic, not random).
    publishers_[r]->Start(static_cast<TimeNs>(1 + r * 157));
  }
}

void DraconisDeployment::ConfigureClient(cluster::ClientConfig& client) {
  if (routers_.empty()) {
    return;
  }
  // RunExperiment fills client.uid before calling; home the client on the
  // same rack RunExperiment points its scheduler at.
  const size_t rack = config().cluster.client_homing == topology::ClientHoming::kFirstRack
                          ? 0
                          : client.uid % routers_.size();
  client.router = routers_[rack].get();
}

bool DraconisDeployment::Failover(cluster::Testbed& testbed) {
  if (standby_.pipeline == nullptr) {
    return false;
  }
  ++failovers_;
  const net::NodeId standby = standby_.pipeline->node_id();
  scheduler_nodes_[0] = standby;
  WakeIdlePollers();
  RehomeRackExecutors(testbed, 0, standby, standby_.roster.get());
  // Cross-rack submissions toward rack 0 follow scheduler_nodes_[0] (the
  // routers share the table); the depth summaries must now come from (and
  // probe) the promoted standby.
  if (!publishers_.empty()) {
    DraconisProgram* program = standby_.program.get();
    publishers_[0]->Retarget(standby, [program] { return program->cp_queue_depth(); });
  }
  return true;
}

std::vector<const DraconisDeployment::Instance*> DraconisDeployment::AllInstances() const {
  std::vector<const Instance*> instances;
  instances.reserve(racks_.size() + 1);
  for (const Instance& inst : racks_) {
    instances.push_back(&inst);
  }
  if (standby_.pipeline != nullptr) {
    instances.push_back(&standby_);
  }
  return instances;
}

void DraconisDeployment::WakeIdlePollers() {
  for (const Instance* inst : AllInstances()) {
    if (inst->roster != nullptr) {
      inst->roster->WakeAll();
    }
  }
}

void DraconisDeployment::Harvest(cluster::ExperimentResult& result) {
  for (const Instance* inst : AllInstances()) {
    inst->pipeline->CheckConservation();
    result.switch_counters += inst->pipeline->counters();
    result.counters += inst->program->counters();
  }
  result.recirc_drops = result.switch_counters.recirc_drops;
  result.counters.failovers += failovers_;

  if (config().cluster.enabled()) {
    for (size_t r = 0; r < racks_.size(); ++r) {
      uint64_t assigned = racks_[r].program->counters().tasks_assigned;
      if (r == 0 && standby_.program != nullptr) {
        assigned += standby_.program->counters().tasks_assigned;
      }
      result.rack_decisions.push_back(assigned);
    }
    for (const auto& router : routers_) {
      result.home_submissions += router->routed_home();
      result.cross_rack_submissions += router->routed_cross();
    }
    const uint64_t routed = result.home_submissions + result.cross_rack_submissions;
    result.cross_rack_fraction =
        routed > 0 ? static_cast<double>(result.cross_rack_submissions) / routed : 0.0;
    for (const auto& publisher : publishers_) {
      result.summary_packets += publisher->summaries_sent();
    }
  }
}

cluster::DeploymentInfo DraconisDeploymentInfo() {
  cluster::DeploymentInfo info;
  info.kind = cluster::SchedulerKind::kDraconis;
  info.canonical_name = "Draconis";
  info.flag_name = "draconis";
  info.policies = {cluster::PolicyKind::kFcfs, cluster::PolicyKind::kPriority,
                   cluster::PolicyKind::kResource, cluster::PolicyKind::kLocality};
  info.switch_policies = AllSwitchPolicies();
  info.failover = true;
  info.multi_rack = true;
  info.make = [](const cluster::ExperimentConfig& config) {
    return std::make_unique<DraconisDeployment>(config);
  };
  return info;
}

}  // namespace draconis::core
