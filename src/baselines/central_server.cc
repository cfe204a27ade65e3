#include "baselines/central_server.h"

#include <utility>

#include "common/check.h"

namespace draconis::baselines {

CentralServerScheduler::CentralServerScheduler(cluster::Testbed* testbed,
                                               const CentralServerConfig& config)
    : simulator_(&testbed->simulator()),
      network_(&testbed->network()),
      recorder_(testbed->recorder()),
      config_(config) {
  node_id_ = network_->Register(this, config.Profile());
}

void CentralServerScheduler::HandlePacket(net::Packet&& pkt) {
  switch (pkt.op) {
    case net::OpCode::kJobSubmission:
      HandleSubmission(std::move(pkt));
      return;
    case net::OpCode::kTaskRequest:
      HandleRequest(pkt);
      return;
    case net::OpCode::kTaskCompletion: {
      if (pkt.client_addr != net::kInvalidNode) {
        net::Packet notice;
        notice.op = net::OpCode::kCompletionNotice;
        notice.dst = pkt.client_addr;
        notice.tasks.push_back(pkt.tasks.at(0));
        network_->Send(node_id_, std::move(notice));
      }
      HandleRequest(pkt);
      return;
    }
    default:
      return;
  }
}

void CentralServerScheduler::HandleSubmission(net::Packet&& pkt) {
  const TimeNs now = simulator_->Now();
  const net::NodeId client = pkt.src;

  // Enqueue what fits; bounce the rest like the switch does.
  size_t accepted = 0;
  for (net::TaskInfo& task : pkt.tasks) {
    if (queue_.size() >= config_.queue_capacity) {
      break;
    }
    if (task.meta.enqueue_time < 0) {
      task.meta.enqueue_time = now;
    }
    trace::RecordTask(recorder_, task, trace::Kind::kEnqueue, now, now, queue_.size() + 1,
                      node_id_);
    queue_.push_back(QueuedTask{std::move(task), client});
    ++counters_.tasks_enqueued;
    ++accepted;
  }

  // Feed executors that were parked on an empty queue.
  while (!queue_.empty() && !waiting_executors_.empty()) {
    const net::NodeId executor = waiting_executors_.front();
    waiting_executors_.pop_front();
    AssignTo(executor);
  }

  if (accepted < pkt.tasks.size()) {
    ++counters_.queue_full_errors;
    for (size_t i = accepted; i < pkt.tasks.size(); ++i) {
      trace::RecordTask(recorder_, pkt.tasks[i], trace::Kind::kQueueFullError, now, now, 0,
                        node_id_);
    }
    net::Packet error;
    error.op = net::OpCode::kErrorQueueFull;
    error.dst = client;
    error.uid = pkt.uid;
    error.jid = pkt.jid;
    error.tasks.assign(pkt.tasks.begin() + accepted, pkt.tasks.end());
    network_->Send(node_id_, std::move(error));
    return;
  }

  net::Packet ack;
  ack.op = net::OpCode::kJobAck;
  ack.dst = client;
  ack.uid = pkt.uid;
  ack.jid = pkt.jid;
  network_->Send(node_id_, std::move(ack));
}

void CentralServerScheduler::HandleRequest(const net::Packet& pkt) {
  if (queue_.empty()) {
    // Park the pull until a task arrives (a server can hold state that a
    // switch pipeline cannot).
    ++counters_.parked_requests;
    waiting_executors_.push_back(pkt.src);
    return;
  }
  AssignTo(pkt.src);
}

void CentralServerScheduler::AssignTo(net::NodeId executor) {
  QueuedTask next = std::move(queue_.front());
  queue_.pop_front();
  ++counters_.tasks_assigned;
  const TimeNs now = simulator_->Now();
  if (next.task.meta.enqueue_time >= 0) {
    trace::RecordTask(recorder_, next.task, trace::Kind::kQueueWait, next.task.meta.enqueue_time,
                      now, 0, node_id_);
  }
  trace::RecordTask(recorder_, next.task, trace::Kind::kAssign, now, now, 0, executor);
  net::Packet assignment;
  assignment.op = net::OpCode::kTaskAssignment;
  assignment.dst = executor;
  assignment.tasks.push_back(next.task);
  assignment.client_addr = next.client;
  network_->Send(node_id_, std::move(assignment));
}

}  // namespace draconis::baselines
