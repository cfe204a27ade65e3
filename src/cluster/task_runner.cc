#include "cluster/task_runner.h"

#include <utility>

#include "common/check.h"

namespace draconis::cluster {

TaskRunner::TaskRunner(Testbed* testbed, uint32_t worker_node, net::NodeId scheduler,
                       const net::HostProfile& profile, size_t cores)
    : simulator_(&testbed->simulator()),
      network_(&testbed->network()),
      metrics_(testbed->metrics()),
      recorder_(testbed->recorder()),
      worker_node_(worker_node),
      scheduler_(scheduler),
      cores_(cores) {
  DRACONIS_CHECK(metrics_ != nullptr);
  node_id_ = network_->Register(this, profile);
}

void TaskRunner::Arrive(const net::TaskInfo& task, uint64_t detail, bool duplicate) {
  const TimeNs now = simulator_->Now();
  trace::RecordTask(recorder_, task, trace::Kind::kExecArrive, now, now, detail, node_id_,
                    duplicate ? 1 : 0);
}

bool TaskRunner::Pickup(const net::TaskInfo& task) {
  const bool first = metrics_->FirstExecution(task.id);
  if (first) {
    metrics_->RecordAssignment(task, simulator_->Now());
  }
  return first;
}

void TaskRunner::BeginService(const net::TaskInfo& task, bool first, TimeNs pickup,
                              TimeNs exec_start, TimeNs access) {
  if (first) {
    metrics_->RecordExecutionStart(task, exec_start);
  }
  trace::RecordTask(recorder_, task, trace::Kind::kExecPickup, pickup, exec_start,
                    static_cast<uint64_t>(access), node_id_);
  ++tasks_executed_;
}

void TaskRunner::RecordService(const net::TaskInfo& task, bool first, TimeNs begin, TimeNs end) {
  // A duplicate is marked: exactly one of an id's service spans carries
  // aux = 0, the first to *start*, not necessarily the one whose notice wins
  // the race to the terminal kComplete (trace_test pins both).
  trace::RecordTask(recorder_, task, trace::Kind::kExecService, begin, end,
                    static_cast<uint64_t>(task.meta.exec_duration), node_id_, first ? 0 : 1);
}

TimeNs TaskRunner::Run(const net::TaskInfo& task, bool first, TimeNs overhead, TimeNs access) {
  const TimeNs now = simulator_->Now();
  const TimeNs exec_start = now + overhead;
  const TimeNs done = exec_start + access + task.meta.exec_duration;
  BeginService(task, first, now, exec_start, access);
  RecordService(task, first, exec_start, done);
  // A repeat's core time is the marginal executor time replication cost,
  // whichever replica wins the completion race.
  metrics_->RecordBusyInterval(now, done, 1, first ? 0 : 1);
  return done;
}

void TaskRunner::OnEvent(uint32_t core, uint32_t /*kind*/) {
  CoreSlot& slot = cores_[core];
  slot.busy = false;
  TaskDone(core, slot.task, slot.client);
}

void TaskRunner::FinishTask(net::TaskInfo task, net::NodeId client, uint32_t credit_target,
                            bool report_sojourn) {
  Finish();
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
    notice.tasks.push_back(task);
    network_->Send(node_id_, std::move(notice));
  }
}

}  // namespace draconis::cluster
