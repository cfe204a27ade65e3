#include "baselines/r2p2.h"

#include <utility>

#include "common/check.h"

namespace draconis::baselines {

R2P2Program::R2P2Program(size_t num_executors, uint32_t jbsq_k, TimeNs selection_staleness)
    : PushProgram(num_executors),
      jbsq_k_(jbsq_k),
      selection_staleness_(selection_staleness),
      stale_view_(num_executors, 0) {
  DRACONIS_CHECK(jbsq_k >= 1);
}

size_t R2P2Program::cp_credits() const {
  size_t free = 0;
  for (uint32_t o : outstanding()) {
    free += jbsq_k_ - o;
  }
  return free;
}

size_t R2P2Program::Select(TimeNs now) {
  // Join the queue that *looks* shortest (the selection view lags by up to
  // selection_staleness), subject to the exact bound. The argmin is
  // deterministic, so every task within one staleness window picks the same
  // "shortest" executor until its exact count hits the bound — the herding
  // the paper describes. If every queue is at the bound, keep circling until
  // a credit frees a slot — or the loopback port drops the task (§8.3).
  const std::vector<uint32_t>& exact = outstanding();
  if (last_refresh_ < 0 || now - last_refresh_ >= selection_staleness_) {
    stale_view_ = exact;
    last_refresh_ = now;
  }
  size_t best = kNoTarget;
  uint32_t best_count = ~0u;
  for (size_t i = 0; i < exact.size(); ++i) {
    if (exact[i] >= jbsq_k_) {
      continue;  // the bound is enforced on the exact count
    }
    const uint32_t count = stale_view_[i];
    if (count < best_count) {
      best = i;
      best_count = count;
      if (count == 0) {
        break;
      }
    }
  }
  return best;
}

R2P2Worker::R2P2Worker(cluster::Testbed* testbed, size_t num_executors, uint32_t worker_node,
                       net::NodeId scheduler)
    : TaskRunner(testbed, worker_node, scheduler, net::HostProfile::Dpdk(TimeNs{150}),
                 num_executors),
      first_slot_(worker_node * num_executors),
      queues_(num_executors) {}

void R2P2Worker::HandlePacket(net::Packet&& pkt) {
  if (pkt.op != net::OpCode::kTaskAssignment) {
    return;
  }
  const size_t local = pkt.exec_props - first_slot_;
  DRACONIS_CHECK_MSG(pkt.exec_props >= first_slot_ && local < queues_.size(),
                     "task pushed to a slot this worker does not host");
  Arrive(pkt.tasks.at(0));
  queues_[local].push_back(CoreSlot{pkt.tasks[0], pkt.client_addr, /*busy=*/true});
  TryRun(local);
}

void R2P2Worker::TryRun(size_t local) {
  CoreSlot& core = cores_[local];
  std::deque<CoreSlot>& queue = queues_[local];
  if (core.busy || queue.empty()) {
    return;
  }
  core = queue.front();
  queue.pop_front();
  EndAt(Run(core.task, Pickup(core.task)), static_cast<uint32_t>(local));
}

void R2P2Worker::TaskDone(uint32_t core, net::TaskInfo task, net::NodeId client) {
  // Credit back to the switch so it can hand this executor more work.
  FinishTask(std::move(task), client, static_cast<uint32_t>(first_slot_ + core));
  TryRun(core);
}

}  // namespace draconis::baselines
