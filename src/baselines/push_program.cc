#include "baselines/push_program.h"

#include <utility>

#include "common/check.h"

namespace draconis::baselines {

PushProgram::PushProgram(size_t num_targets)
    : outstanding_(num_targets, 0), worker_of_target_(num_targets, net::kInvalidNode) {
  DRACONIS_CHECK(num_targets > 0);
}

void PushProgram::BindTarget(size_t target, net::NodeId worker) {
  DRACONIS_CHECK(target < worker_of_target_.size());
  worker_of_target_[target] = worker;
}

void PushProgram::CheckConservation() const {
  uint64_t outstanding = 0;
  for (uint32_t o : outstanding_) {
    outstanding += o;
  }
  DRACONIS_CHECK_MSG(outstanding == counters_.tasks_pushed - counters_.credits,
                     "push credits not conserved: outstanding != tasks_pushed - credits");
}

void PushProgram::OnPass(p4::PassContext& ctx, net::Packet&& pkt) {
  switch (pkt.op) {
    case net::OpCode::kCredit: {
      DRACONIS_CHECK(pkt.exec_props < outstanding_.size());
      DRACONIS_CHECK(outstanding_[pkt.exec_props] > 0);
      outstanding_[pkt.exec_props] -= 1;
      ++counters_.credits;
      ctx.Drop(pkt, "info_credit_consumed");
      return;
    }
    case net::OpCode::kJobSubmission:
      break;  // handled below
    default:
      // Plain forwarding for everything else; self-addressed packets are
      // unroutable.
      if (pkt.dst == ctx.SwitchNode() || pkt.dst == net::kInvalidNode) {
        ctx.Drop(pkt, "info_unroutable");
      } else {
        ctx.Emit(std::move(pkt));
      }
      return;
  }

  DRACONIS_CHECK_MSG(pkt.tasks.size() == 1,
                     "push schedulers route one task per packet; batch at the client");
  net::TaskInfo& task = pkt.tasks[0];
  if (task.meta.enqueue_time < 0) {
    // The task waits at the switch from its first pass; recirculating while
    // no target is free is its queueing.
    task.meta.enqueue_time = ctx.Now();
    trace::RecordTask(recorder_, task, trace::Kind::kEnqueue, ctx.Now(), ctx.Now(), 0,
                      ctx.SwitchNode());
  }
  const size_t target = Select(ctx.Now());
  if (target == kNoTarget) {
    ++counters_.credit_wait_recirculations;
    ctx.Recirculate(std::move(pkt));
    return;
  }
  outstanding_[target] += 1;
  ++counters_.tasks_pushed;

  // The submission becomes the assignment in place.
  pkt.op = net::OpCode::kTaskAssignment;
  pkt.client_addr = pkt.client_addr != net::kInvalidNode ? pkt.client_addr : pkt.src;
  pkt.exec_props = static_cast<uint32_t>(target);
  pkt.dst = worker_of_target_[target];
  DRACONIS_CHECK_MSG(pkt.dst != net::kInvalidNode, "target not bound to a worker");
  trace::RecordTask(recorder_, pkt.tasks[0], trace::Kind::kAssign, ctx.Now(), ctx.Now(), 0,
                    pkt.dst);
  ctx.Emit(std::move(pkt));
}

}  // namespace draconis::baselines
