#include "baselines/sparrow.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace draconis::baselines {

SparrowScheduler::SparrowScheduler(cluster::Testbed* testbed, const SparrowConfig& config)
    : simulator_(&testbed->simulator()),
      network_(&testbed->network()),
      recorder_(testbed->recorder()),
      config_(config),
      rng_(config.seed) {
  node_id_ = network_->Register(this, SparrowConfig::Profile());
}

void SparrowScheduler::HandlePacket(net::Packet&& pkt) {
  switch (pkt.op) {
    case net::OpCode::kJobSubmission:
      HandleSubmission(std::move(pkt));
      return;
    case net::OpCode::kGetTask:
      HandleGetTask(pkt);
      return;
    default:
      return;
  }
}

void SparrowScheduler::HandleSubmission(net::Packet&& pkt) {
  DRACONIS_CHECK_MSG(!workers_.empty(), "Sparrow scheduler has no workers configured");
  const TimeNs now = simulator_->Now();
  const uint64_t key = JobKey(pkt.uid, pkt.jid);
  JobState& job = jobs_[key];
  job.client = pkt.src;
  for (net::TaskInfo& task : pkt.tasks) {
    if (task.meta.enqueue_time < 0) {
      task.meta.enqueue_time = now;
      trace::RecordTask(recorder_, task, trace::Kind::kEnqueue, now, now, 0, node_id_);
    }
    job.unlaunched.push_back(std::move(task));
  }

  // Batch sampling: d * m probes, to distinct workers first (partial
  // Fisher-Yates); jobs larger than the cluster place additional
  // reservations round-robin so every task has somewhere to bind.
  const size_t wanted = SparrowConfig::kProbeRatio * pkt.tasks.size();
  std::vector<net::NodeId> pool = workers_;
  for (size_t i = 0; i < wanted; ++i) {
    net::NodeId target;
    if (i < pool.size()) {
      const size_t j = i + rng_.NextBelow(pool.size() - i);
      std::swap(pool[i], pool[j]);
      target = pool[i];
    } else {
      target = pool[i % pool.size()];
    }
    net::Packet probe;
    probe.op = net::OpCode::kProbe;
    probe.dst = target;
    probe.uid = pkt.uid;
    probe.jid = pkt.jid;
    ++counters_.probes_sent;
    network_->Send(node_id_, std::move(probe));
  }
}

void SparrowScheduler::HandleGetTask(const net::Packet& pkt) {
  auto it = jobs_.find(JobKey(pkt.uid, pkt.jid));
  if (it == jobs_.end() || it->second.unlaunched.empty()) {
    // Late binding: the job's tasks are all placed; cancel the reservation.
    ++counters_.empty_get_tasks;
    net::Packet noop;
    noop.op = net::OpCode::kNoOpTask;
    noop.dst = pkt.src;
    network_->Send(node_id_, std::move(noop));
    return;
  }
  JobState& job = it->second;
  net::TaskInfo task = std::move(job.unlaunched.front());
  job.unlaunched.pop_front();
  ++counters_.tasks_launched;
  trace::RecordTask(recorder_, task, trace::Kind::kAssign, simulator_->Now(), simulator_->Now(),
                    0, pkt.src);

  net::Packet assignment;
  assignment.op = net::OpCode::kTaskAssignment;
  assignment.dst = pkt.src;
  assignment.tasks.push_back(task);
  assignment.client_addr = job.client;
  network_->Send(node_id_, std::move(assignment));

  if (job.unlaunched.empty()) {
    jobs_.erase(it);
  }
}

SparrowWorker::SparrowWorker(cluster::Testbed* testbed, size_t num_executors,
                             uint32_t worker_node)
    : TaskRunner(testbed, worker_node, net::kInvalidNode, SparrowConfig::Profile(),
                 num_executors) {
  DRACONIS_CHECK(num_executors >= 1);
}

void SparrowWorker::HandlePacket(net::Packet&& pkt) {
  switch (pkt.op) {
    case net::OpCode::kProbe: {
      reservations_.push_back(Reservation{pkt.src, pkt.uid, pkt.jid});
      TryDispatch();
      return;
    }
    case net::OpCode::kTaskAssignment: {
      DRACONIS_CHECK_MSG(!waiting_cores_.empty(), "assignment without a waiting core");
      const uint32_t core = waiting_cores_.front();
      waiting_cores_.pop_front();

      CoreSlot& slot = cores_[core];
      slot.task = std::move(pkt.tasks.at(0));
      slot.client = pkt.client_addr;
      Arrive(slot.task);
      EndAt(Run(slot.task, Pickup(slot.task)), core);
      return;
    }
    case net::OpCode::kNoOpTask: {
      // Reservation cancelled; the core goes back to idle.
      DRACONIS_CHECK_MSG(!waiting_cores_.empty(), "cancellation without a waiting core");
      const uint32_t core = waiting_cores_.front();
      waiting_cores_.pop_front();
      cores_[core].busy = false;
      TryDispatch();
      return;
    }
    default:
      return;
  }
}

void SparrowWorker::TryDispatch() {
  while (!reservations_.empty()) {
    uint32_t core = 0;
    while (core < cores_.size() && cores_[core].busy) {
      ++core;
    }
    if (core == cores_.size()) {
      return;  // all cores busy or waiting
    }
    Reservation res = reservations_.front();
    reservations_.pop_front();
    cores_[core].busy = true;
    waiting_cores_.push_back(core);

    net::Packet get;
    get.op = net::OpCode::kGetTask;
    get.dst = res.scheduler;
    get.uid = res.uid;
    get.jid = res.jid;
    network_->Send(node_id_, std::move(get));
  }
}

void SparrowWorker::TaskDone(uint32_t /*core*/, net::TaskInfo task, net::NodeId client) {
  FinishTask(std::move(task), client, kNoCredit);
  TryDispatch();
}

}  // namespace draconis::baselines
