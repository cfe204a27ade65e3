#include "baselines/worker.h"

#include <utility>

#include "common/check.h"

namespace draconis::baselines {

BaselineWorker::BaselineWorker(cluster::Testbed* testbed, uint32_t worker_node,
                               net::NodeId scheduler, const net::HostProfile& profile)
    : simulator_(&testbed->simulator()),
      network_(&testbed->network()),
      metrics_(testbed->metrics()),
      worker_node_(worker_node),
      scheduler_(scheduler) {
  DRACONIS_CHECK(metrics_ != nullptr);
  node_id_ = network_->Register(this, profile);
}

void BaselineWorker::RecordStart(const net::TaskInfo& task, TimeNs exec_start) {
  if (metrics_->FirstExecution(task.id)) {
    metrics_->RecordAssignment(task, simulator_->Now());
    metrics_->RecordExecutionStart(task, exec_start);
  } else {
    metrics_->RecordWastedWork(task.meta.exec_duration);
  }
}

TimeNs BaselineWorker::StartTask(const net::TaskInfo& task, TimeNs exec_start) {
  RecordStart(task, exec_start);
  const TimeNs done = exec_start + task.meta.exec_duration;
  metrics_->RecordBusyInterval(simulator_->Now(), done);
  return done;
}

void BaselineWorker::FinishTask(net::TaskInfo task, net::NodeId client, uint32_t credit_target,
                                bool report_sojourn) {
  metrics_->RecordNodeCompletion(worker_node_, simulator_->Now());
  if (credit_target != kNoCredit) {
    net::Packet credit;
    credit.op = net::OpCode::kCredit;
    credit.dst = scheduler_;
    credit.exec_props = credit_target;
    if (report_sojourn && task.meta.enqueue_time >= 0) {
      // The measured sojourn rides in summary_depth (plus its wire bytes)
      // for the latency-aware balancer.
      credit.summary_depth = static_cast<uint64_t>(simulator_->Now() - task.meta.enqueue_time);
      credit.payload_bytes = 8;
    }
    network_->Send(node_id_, std::move(credit));
  }
  if (client != net::kInvalidNode) {
    net::Packet notice;
    notice.op = net::OpCode::kCompletionNotice;
    notice.dst = client;
    notice.tasks = {std::move(task)};
    network_->Send(node_id_, std::move(notice));
  }
}

}  // namespace draconis::baselines
