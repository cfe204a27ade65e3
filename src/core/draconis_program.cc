#include "core/draconis_program.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace draconis::core {

DraconisProgram::DraconisProgram(SchedulingPolicy* policy, const DraconisConfig& config,
                                 p4::ResourceLedger* ledger, RankFunction* rank_function)
    : policy_(policy), rank_function_(rank_function) {
  DRACONIS_CHECK(policy != nullptr);
  if (rank_function != nullptr) {
    // PIFO mode: the rank order carries the whole discipline, so per-level
    // queues (and the per-level probe machinery) make no sense here.
    DRACONIS_CHECK_MSG(policy->num_queues() == 1,
                       "PIFO mode replaces per-level queues; use a single-queue policy");
    pifo_ = std::make_unique<p4::Pifo<QueueEntry>>("pifo", config.queue_capacity, ledger,
                                                   QueueEntry::kWireSize);
    return;
  }
  const size_t levels = policy->num_queues();
  DRACONIS_CHECK(levels >= 1);
  queues_.reserve(levels);
  for (size_t q = 0; q < levels; ++q) {
    queues_.push_back(std::make_unique<SwitchQueue>(
        "queue" + std::to_string(q), config.queue_capacity, ledger,
        config.shadow_copy_dequeue));
  }
}

void DraconisProgram::OnPass(p4::PassContext& ctx, net::Packet&& pkt) {
  switch (pkt.op) {
    case net::OpCode::kJobSubmission:
      HandleSubmission(ctx, std::move(pkt));
      return;
    case net::OpCode::kTaskCompletion: {
      // Forward the completion notice to the client, then treat the rest of
      // the packet as the piggybacked task request (§3.1).
      net::Packet notice;
      notice.op = net::OpCode::kCompletionNotice;
      notice.dst = pkt.client_addr;
      notice.tasks.push_back(pkt.tasks.at(0));
      ctx.Emit(std::move(notice));
      pkt.op = net::OpCode::kTaskRequest;
      pkt.tasks.clear();
      HandleTaskRequest(ctx, std::move(pkt));
      return;
    }
    case net::OpCode::kTaskRequest:
      HandleTaskRequest(ctx, std::move(pkt));
      return;
    case net::OpCode::kSwapTask:
      HandleSwap(ctx, std::move(pkt));
      return;
    case net::OpCode::kRepair:
      HandleRepair(ctx, std::move(pkt));
      return;
    default:
      // Non-scheduler traffic: behave like a regular switch (§4.1). A packet
      // whose final destination is the switch itself is unroutable.
      if (pkt.dst == ctx.SwitchNode() || pkt.dst == net::kInvalidNode) {
        ctx.Drop(pkt, "info_unroutable");
      } else {
        ctx.Emit(std::move(pkt));
      }
      return;
  }
}

void DraconisProgram::HandleSubmission(p4::PassContext& ctx, net::Packet&& pkt) {
  if (pkt.tasks.empty()) {
    ctx.Drop(pkt, "malformed_empty_submission");
    return;
  }

  QueueEntry entry;
  entry.task = pkt.tasks.front();
  entry.client = pkt.client_addr != net::kInvalidNode ? pkt.client_addr : pkt.src;
  entry.skip_counter = pkt.from_swap ? pkt.skip_counter : 0;
  entry.valid = true;
  if (entry.task.meta.enqueue_time < 0) {
    entry.task.meta.enqueue_time = ctx.Now();
  }

  size_t q = 0;
  bool added = false;
  uint64_t occupancy = 0;  // control-plane occupancy right after the insert
  if (pifo_ != nullptr) {
    // PIFO mode: rank first (match-action stages), then the single
    // admit-or-reject port. A full PIFO refuses the arrival — no pointer
    // repair exists or is needed, the client retries exactly as for a full
    // circular queue.
    const uint64_t rank = rank_function_->Rank(ctx.registers(), entry.task, ctx.Now());
    added = pifo_->Push(ctx.registers(), rank, entry);
    occupancy = pifo_->cp_size();
  } else {
    q = std::min(policy_->QueueForTask(entry.task), queues_.size() - 1);
    const SwitchQueue::EnqueueResult res = queues_[q]->Enqueue(ctx.registers(), entry);
    added = res.added;
    occupancy = queues_[q]->cp_occupancy();

    if (res.need_add_repair) {
      LaunchRepair(ctx, q, net::RepairTarget::kAddPtr, res.add_repair_value);
      trace::RecordTask(recorder_, entry.task, trace::Kind::kRepairLaunch, ctx.Now(), ctx.Now(),
                        res.add_repair_value, ctx.SwitchNode());
    }
    if (res.need_retrieve_repair) {
      LaunchRepair(ctx, q, net::RepairTarget::kRetrievePtr, res.retrieve_repair_value);
      trace::RecordTask(recorder_, entry.task, trace::Kind::kRepairLaunch, ctx.Now(), ctx.Now(),
                        res.retrieve_repair_value, ctx.SwitchNode(), 1);
    }
  }

  if (!added) {
    // Queue full (or a repair in flight): return every not-yet-enqueued task
    // to the client, which retries after a short wait (§4.3).
    ++counters_.queue_full_errors;
    for (const net::TaskInfo& t : pkt.tasks) {
      trace::RecordTask(recorder_, t, trace::Kind::kQueueFullError, ctx.Now(), ctx.Now(), 0,
                        ctx.SwitchNode(), static_cast<uint16_t>(q));
    }
    net::Packet error;
    error.op = net::OpCode::kErrorQueueFull;
    error.dst = entry.client;
    error.uid = pkt.uid;
    error.jid = pkt.jid;
    error.tasks = std::move(pkt.tasks);
    ctx.Emit(std::move(error));
    return;
  }

  ++counters_.tasks_enqueued;
  // detail: control-plane occupancy of the queue right after this insert
  // (i.e. including this task) — the congestion seen at enqueue time.
  trace::RecordTask(recorder_, entry.task, trace::Kind::kEnqueue, ctx.Now(), ctx.Now(), occupancy,
                    ctx.SwitchNode(), static_cast<uint16_t>(q));
  pkt.tasks.erase(pkt.tasks.begin());
  if (!pkt.tasks.empty()) {
    // More tasks in the packet: one enqueue per pass (§4.3).
    ctx.Recirculate(std::move(pkt));
    return;
  }
  if (pkt.from_swap) {
    // A re-enqueued swap task; the client was acked when it was first
    // submitted.
    ctx.Drop(pkt, "info_swap_requeued");
    return;
  }
  ++counters_.acks_sent;
  net::Packet ack;
  ack.op = net::OpCode::kJobAck;
  ack.dst = entry.client;
  ack.uid = pkt.uid;
  ack.jid = pkt.jid;
  ctx.Emit(std::move(ack));
}

void DraconisProgram::HandleTaskRequest(p4::PassContext& ctx, net::Packet&& pkt) {
  DRACONIS_CHECK_MSG(pkt.rtrv_prio >= 1, "RTRV_PRIO is 1-based");
  if (pifo_ != nullptr) {
    // PIFO mode: the head is by construction the task the policy wants next,
    // so a successful pop always assigns (no swap walks, no level probes).
    const p4::Pifo<QueueEntry>::PopResult pop = pifo_->Pop(ctx.registers());
    if (!pop.got) {
      SendNoOp(ctx, pkt.src);
      return;
    }
    rank_function_->OnDequeue(ctx.registers(), pop.rank);
    Assign(ctx, pop.value, pkt.src);
    return;
  }
  const size_t q = std::min<size_t>(pkt.rtrv_prio - 1, queues_.size() - 1);
  const net::NodeId executor = pkt.src;

  SwitchQueue::DequeueResult dq = queues_[q]->Dequeue(ctx.registers());

  if (!dq.got_task) {
    // Empty level (or a retrieve repair in flight, §4.7.2). Probe the next
    // priority level if there is one; otherwise answer a no-op.
    if (q + 1 < queues_.size()) {
      ++counters_.priority_probes;
      pkt.rtrv_prio = static_cast<uint8_t>(q + 2);
      ctx.Recirculate(std::move(pkt));
    } else {
      SendNoOp(ctx, executor);
    }
    return;
  }

  QueueEntry entry = std::move(dq.entry);
  if (policy_->ShouldAssign(entry, pkt.exec_props)) {
    Assign(ctx, entry, executor);
    return;
  }

  // Policy mismatch: start a task-swapping walk at the next entry (§5.1).
  ++counters_.swap_walks_started;
  net::Packet swap;
  swap.op = net::OpCode::kSwapTask;
  swap.src = executor;  // preserved so the eventual reply finds the executor
  swap.tasks.push_back(entry.task);
  swap.client_addr = entry.client;
  swap.skip_counter = entry.skip_counter;
  swap.exec_props = pkt.exec_props;
  swap.queue_index = static_cast<uint8_t>(q);
  swap.swap_indx = dq.slot + 1;
  swap.pkt_retrieve_ptr = dq.slot + 1;  // the retrieve pointer after our increment
  swap.swap_count = 0;
  swap.created_at = pkt.created_at;
  // Swap packets carry a live task; like repairs, they ride the loopback
  // port's lossless class (dropping one would silently lose the task).
  ctx.Recirculate(std::move(swap), /*guaranteed=*/true);
}

void DraconisProgram::HandleSwap(p4::PassContext& ctx, net::Packet&& pkt) {
  if (pifo_ != nullptr) {
    // PIFO mode never starts a swap walk; a stray swap packet is a bug in
    // the sender, not in the queue, so drop it instead of crashing.
    ctx.Drop(pkt, "info_pifo_unexpected_swap");
    return;
  }
  const size_t q = std::min<size_t>(pkt.queue_index, queues_.size() - 1);

  QueueEntry carried;
  carried.task = pkt.tasks.at(0);
  carried.client = pkt.client_addr;
  carried.skip_counter = pkt.skip_counter;
  carried.valid = true;

  SwitchQueue::SwapResult res =
      queues_[q]->SwapAt(ctx.registers(), pkt.pkt_retrieve_ptr, pkt.swap_indx, carried);

  if (res.past_end) {
    // No queued task can run on this executor: put the carried task back via
    // the submission path and release the executor with a no-op.
    RequeueCarriedTask(ctx, std::move(pkt));
    return;
  }
  if (!res.swapped) {
    // Defensive corner: the slot was invalid, so the carried task has been
    // absorbed into a retrievable position. End the walk.
    SendNoOp(ctx, pkt.src);
    ctx.Drop(pkt, "swap_absorbed");
    return;
  }

  ++counters_.swap_exchanges;
  QueueEntry candidate = std::move(res.previous);
  trace::RecordTask(recorder_, carried.task, trace::Kind::kSwapExchange, ctx.Now(), ctx.Now(),
                    res.slot, ctx.SwitchNode());
  trace::RecordTask(recorder_, candidate.task, trace::Kind::kSwapExchange, ctx.Now(), ctx.Now(),
                    res.slot, ctx.SwitchNode(), 1);
  if (policy_->ShouldAssign(candidate, pkt.exec_props)) {
    Assign(ctx, candidate, pkt.src);
    return;
  }

  pkt.swap_count += 1;
  if (pkt.swap_count >= policy_->max_swaps()) {
    // Bounded walk exhausted (starvation avoidance, §5.1).
    pkt.tasks.at(0) = candidate.task;
    pkt.client_addr = candidate.client;
    pkt.skip_counter = candidate.skip_counter;
    RequeueCarriedTask(ctx, std::move(pkt));
    return;
  }

  pkt.tasks.at(0) = candidate.task;
  pkt.client_addr = candidate.client;
  pkt.skip_counter = candidate.skip_counter;
  pkt.swap_indx = res.slot + 1;
  pkt.pkt_retrieve_ptr = res.head;  // refresh the staleness reference
  ctx.Recirculate(std::move(pkt), /*guaranteed=*/true);
}

void DraconisProgram::HandleRepair(p4::PassContext& ctx, net::Packet&& pkt) {
  if (pifo_ != nullptr) {
    // No pointers to repair in PIFO mode (see HandleSwap).
    ctx.Drop(pkt, "info_pifo_unexpected_repair");
    return;
  }
  const size_t q = std::min<size_t>(pkt.queue_index, queues_.size() - 1);
  queues_[q]->ApplyRepair(ctx.registers(), pkt.repair_target, pkt.repair_value);
  if (pkt.repair_target == net::RepairTarget::kAddPtr) {
    ++counters_.add_repairs;
  } else {
    ++counters_.retrieve_repairs;
  }
  if (recorder_ != nullptr) {
    recorder_->RecordGlobal(trace::Kind::kRepairApply, ctx.Now(), pkt.repair_value,
                            static_cast<uint32_t>(q));
  }
  ctx.Drop(pkt, "info_repair_consumed");
}

void DraconisProgram::Assign(p4::PassContext& ctx, const QueueEntry& entry,
                             net::NodeId executor) {
  ++counters_.tasks_assigned;
  if (entry.task.meta.enqueue_time >= 0) {
    // Queue residency: enqueue -> the pass that dequeued-and-matched it.
    trace::RecordTask(recorder_, entry.task, trace::Kind::kQueueWait, entry.task.meta.enqueue_time,
                      ctx.Now(), 0, ctx.SwitchNode());
  }
  trace::RecordTask(recorder_, entry.task, trace::Kind::kAssign, ctx.Now(), ctx.Now(), 0, executor);
  net::Packet assignment;
  assignment.op = net::OpCode::kTaskAssignment;
  assignment.dst = executor;
  assignment.tasks.push_back(entry.task);
  assignment.client_addr = entry.client;
  ctx.Emit(std::move(assignment));
}

net::Packet DraconisProgram::NoOpFor(net::NodeId executor) {
  net::Packet noop;
  noop.op = net::OpCode::kNoOpTask;
  noop.dst = executor;
  return noop;
}

void DraconisProgram::SendNoOp(p4::PassContext& ctx, net::NodeId executor) {
  ++counters_.noops_sent;
  ctx.Emit(NoOpFor(executor));
}

bool DraconisProgram::PollsArePure() const {
  if (pifo_ != nullptr) {
    // An empty Pop only claims the PIFO for the pass, and the rank
    // function's OnDequeue runs only after a successful one.
    return true;
  }
  for (const auto& q : queues_) {
    if (!q->shadow_copy_dequeue()) {
      return false;
    }
  }
  return queues_.size() == 1;
}

bool DraconisProgram::QueuesIdle() const {
  if (pifo_ != nullptr && !pifo_->cp_empty()) {
    return false;
  }
  for (const auto& q : queues_) {
    if (q->cp_occupancy() != 0 || q->cp_add_repair_flag() || q->cp_retrieve_repair_flag()) {
      return false;
    }
  }
  return true;
}

void DraconisProgram::LaunchRepair(p4::PassContext& ctx, size_t q, net::RepairTarget target,
                                   uint64_t value) {
  net::Packet repair;
  repair.op = net::OpCode::kRepair;
  repair.queue_index = static_cast<uint8_t>(q);
  repair.repair_target = target;
  repair.repair_value = value;
  // Repairs ride the loopback port's high-priority class: dropping one would
  // leave a repair flag set forever and wedge the queue.
  ctx.Recirculate(std::move(repair), /*guaranteed=*/true);
}

void DraconisProgram::RequeueCarriedTask(p4::PassContext& ctx, net::Packet&& pkt) {
  ++counters_.swap_requeues;
  if (!pkt.tasks.empty()) {
    trace::RecordTask(recorder_, pkt.tasks[0], trace::Kind::kSwapRequeue, ctx.Now(), ctx.Now(),
                      pkt.swap_count, ctx.SwitchNode());
  }
  SendNoOp(ctx, pkt.src);
  // The swap packet becomes the resubmission in place.
  pkt.op = net::OpCode::kJobSubmission;
  pkt.from_swap = true;
  pkt.swap_count = 0;
  ctx.Recirculate(std::move(pkt), /*guaranteed=*/true);
}

}  // namespace draconis::core
