// The Draconis switch program (paper §4–§6): the packet-processing logic that
// turns the circular queue + a scheduling policy into an in-network
// scheduler. One instance is installed into a p4::SwitchPipeline.
//
// Packet handling per opcode:
//   job_submission  enqueue the first task; recirculate for the rest (§4.3);
//                   trigger pointer repairs (§4.5); error to client when full.
//   task_request    dequeue and policy-check; assign, start a swap walk
//                   (§5.1), probe the next priority queue (§6.1), or no-op.
//   task_completion forward the completion to the client and treat the rest
//                   of the packet as a piggybacked task_request (§3.1).
//   swap_task       continue a task-swapping walk.
//   repair          apply a pointer correction and clear the repair flag.
//   anything else   forwarded unchanged: Draconis is colocation-safe (§4.1).

#ifndef DRACONIS_CORE_DRACONIS_PROGRAM_H_
#define DRACONIS_CORE_DRACONIS_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/scheduler_counters.h"
#include "core/policy.h"
#include "core/queue_entry.h"
#include "core/rank_function.h"
#include "core/switch_queue.h"
#include "p4/pifo.h"
#include "p4/pipeline.h"
#include "p4/register.h"
#include "trace/recorder.h"

namespace draconis::core {

struct DraconisConfig {
  // Entries per class-of-service queue. The paper's Tofino-1 deployment
  // supports 164 K entries (§7).
  size_t queue_capacity = 164 * 1024;
  // Production shadow-copy dequeue vs the paper's textbook overrun-and-
  // repair dequeue (see switch_queue.h; false is kept for tests and the
  // design-choice ablation).
  bool shadow_copy_dequeue = true;
};

// Packet handling is identical in PIFO mode (docs/pifo.md) except that the
// per-level circular queues are replaced by one rank-ordered p4::Pifo: a
// submission computes the task's rank and pushes (full -> the same
// error-to-client path, minus the pointer repairs the circular queue needs);
// a task_request pops the minimum-rank task and always assigns it (the rank
// order *is* the policy, so there is no policy-mismatch swap walk and no
// per-level probe). Swap and repair packets cannot occur and are dropped
// defensively.

class DraconisProgram : public p4::SwitchProgram {
 public:
  // `policy` must outlive the program. `ledger` (optional) accounts register
  // memory. A non-null `rank_function` (which must also outlive the program)
  // selects PIFO mode; it requires a single-queue policy (the rank order
  // replaces per-level queues).
  DraconisProgram(SchedulingPolicy* policy, const DraconisConfig& config,
                  p4::ResourceLedger* ledger = nullptr, RankFunction* rank_function = nullptr);

  void OnPass(p4::PassContext& ctx, net::Packet&& pkt) override;

  const cluster::SchedulerCounters& counters() const { return counters_; }
  const SwitchQueue& queue(size_t i) const { return *queues_[i]; }
  size_t num_queues() const { return queues_.size(); }

  // Control-plane view of the total queued-task count across all class
  // queues (or the PIFO), as published in kQueueDepthSummary packets by the
  // multi-rack summary layer (src/topology/).
  uint64_t cp_queue_depth() const {
    if (pifo_ != nullptr) {
      return pifo_->cp_size();
    }
    uint64_t depth = 0;
    for (const auto& q : queues_) {
      depth += q->cp_occupancy();
    }
    return depth;
  }

  // Optional task-lifecycle recorder (nullable; never affects behaviour).
  void SetRecorder(trace::Recorder* recorder) { recorder_ = recorder; }

  // --- Idle-poll fast-forward seam (core/poll_roster.h) --------------------
  // Whether a task_request that finds every queue empty changes no register
  // state: a PIFO, or the shadow-copy dequeue on a single queue (more levels
  // are probed by recirculating).
  bool PollsArePure() const;
  // Every queue (or the PIFO) is empty and has no repair pending: a
  // task_request now gets a no-op, and the pass changes nothing but
  // counters.
  bool QueuesIdle() const;
  void CreditElidedNoOps(uint64_t n) { counters_.noops_sent += n; }
  // The no-op answer to the executor at `executor`.
  static net::Packet NoOpFor(net::NodeId executor);

 private:
  void HandleSubmission(p4::PassContext& ctx, net::Packet&& pkt);
  void HandleTaskRequest(p4::PassContext& ctx, net::Packet&& pkt);
  void HandleSwap(p4::PassContext& ctx, net::Packet&& pkt);
  void HandleRepair(p4::PassContext& ctx, net::Packet&& pkt);

  // Emits a task_assignment for `entry` to the executor at `executor`.
  void Assign(p4::PassContext& ctx, const QueueEntry& entry, net::NodeId executor);

  // Emits a no-op task to the executor.
  void SendNoOp(p4::PassContext& ctx, net::NodeId executor);

  // Converts a finished swap walk back into a (non-acked) job_submission and
  // notifies the executor with a no-op (§5.1 last paragraph).
  void RequeueCarriedTask(p4::PassContext& ctx, net::Packet&& pkt);

  // Recirculates a pointer-repair packet for queue `q`.
  void LaunchRepair(p4::PassContext& ctx, size_t q, net::RepairTarget target, uint64_t value);

  SchedulingPolicy* policy_;
  trace::Recorder* recorder_ = nullptr;
  std::vector<std::unique_ptr<SwitchQueue>> queues_;
  RankFunction* rank_function_ = nullptr;
  std::unique_ptr<p4::Pifo<QueueEntry>> pifo_;  // non-null only in PIFO mode
  cluster::SchedulerCounters counters_;
};

}  // namespace draconis::core

#endif  // DRACONIS_CORE_DRACONIS_PROGRAM_H_
