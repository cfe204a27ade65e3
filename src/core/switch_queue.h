// The paper's P4-compatible circular queue (§4.2–§4.7).
//
// The queue is built from register arrays that obey the one-access-per-packet
// rule, so neither enqueue nor dequeue can "check, then update" a pointer.
// Instead, both paths optimistically read-and-increment their pointer and
// repair mistakes afterwards:
//
//   - Enqueue increments add_ptr first, then discovers the queue is full. A
//     repair packet (recirculated, deduplicated by a repair flag) resets
//     add_ptr to its pre-mistake value. While the flag is set, further
//     submissions are refused: add_ptr is known-inflated, so a write through
//     it could be silently undone by the in-flight repair.
//   - Dequeue increments retrieve_ptr first, then discovers the slot is
//     invalid (queue empty). The correction is deferred to the next
//     job_submission (§4.5), which detects retrieve_ptr > add_ptr and
//     recirculates a repair that snaps retrieve_ptr to the index of the task
//     it just added. Requests that observe the pending-repair flag return
//     no-ops (§4.7.2).
//
// Shadow-copy dequeue (enabled by default): a busy cluster polls an *empty*
// queue tens of millions of times per second, and with the textbook §4.5
// scheme every one of those polls over-runs retrieve_ptr, so every enqueue
// into an empty queue costs a repair recirculation — and while the repair
// flag is set all retrievals answer no-ops (§4.7.2), starving the queue
// under churn. The production fix keeps a *shadow copy* of add_ptr in a
// second register (written by the enqueue pass one stage later): the dequeue
// conditions its increment on retrieve_ptr < shadow (a single predicated
// fetch-and-add, P4-legal), so polling an empty queue no longer over-runs
// the pointer at all. The §4.5 delayed-repair machinery remains — it still
// covers the full-queue add_ptr mistake, and the textbook variant can be
// selected (shadow_copy_dequeue = false) for tests and the design-choice
// ablation bench.
//
// Pointers are 64-bit monotonically increasing; the slot index is ptr mod
// capacity. (The paper uses 32-bit pointers; 64-bit is behaviourally
// identical within any run and sidesteps wraparound arithmetic.)
//
// Tie-break contract: within one queue, dequeue order is exactly the order
// in which entries were ADMITTED (Enqueue returned added) — strict FIFO. In
// the priority pipeline each level owns its own SwitchQueue, so
// equal-priority tasks dequeue in arrival order. Repair episodes refuse or
// no-op operations but never reorder admitted entries, in either dequeue
// mode. The PIFO platform (docs/pifo.md) leans on this: its rank-tie
// resolution is FIFO-by-arrival precisely so the strict-priority rank
// function reproduces this queue bit for bit, and
// switch_queue_test.EqualPriorityTasksDequeueInArrivalOrderAcrossRepairs
// pins the contract.
//
// All methods that take a PacketPass perform register accesses and must be
// called at most once per pass, per queue.

#ifndef DRACONIS_CORE_SWITCH_QUEUE_H_
#define DRACONIS_CORE_SWITCH_QUEUE_H_

#include <cstdint>
#include <string>

#include "core/queue_entry.h"
#include "net/packet.h"
#include "p4/register.h"

namespace draconis::core {

class SwitchQueue {
 public:
  // Pointer-repair bookkeeping, held in ONE register so a pass can read and
  // update it atomically (a stateful-ALU register pair: two pending bits and
  // the 32-bit repair target). Split flag registers cannot coordinate the
  // two repair types atomically: an overrun detector could set the retrieve
  // flag and then discover a pending add repair forbids its write, leaving a
  // flag set that no repair packet will ever clear.
  struct RepairState {
    bool add_pending = false;
    bool retrieve_pending = false;
    uint64_t hint = 0;  // where the pending retrieve repair will snap rptr

    static constexpr size_t kWireSize = 8;  // 32-bit hint + flags, padded
  };

  // `ledger` (optional) accumulates the switch SRAM this queue consumes.
  // `shadow_copy_dequeue` selects the production dequeue (see above); false
  // gives the paper's textbook overrun-and-repair behaviour.
  SwitchQueue(const std::string& name, size_t capacity, p4::ResourceLedger* ledger = nullptr,
              bool shadow_copy_dequeue = true);

  SwitchQueue(const SwitchQueue&) = delete;
  SwitchQueue& operator=(const SwitchQueue&) = delete;

  size_t capacity() const { return capacity_; }
  bool shadow_copy_dequeue() const { return shadow_copy_dequeue_; }

  struct EnqueueResult {
    bool added = false;    // the entry was written into the queue
    uint64_t slot = 0;     // absolute position written (valid when added)
    // The caller must recirculate a repair packet for the given pointer.
    bool need_add_repair = false;
    uint64_t add_repair_value = 0;
    bool need_retrieve_repair = false;
    uint64_t retrieve_repair_value = 0;
  };

  // Enqueue path for one task (the first task of a job_submission pass).
  // When !added the submission must be refused (queue full or an add-pointer
  // repair is in flight).
  EnqueueResult Enqueue(p4::PacketPass& pass, const QueueEntry& entry);

  struct DequeueResult {
    bool got_task = false;
    QueueEntry entry;        // valid when got_task
    uint64_t slot = 0;       // absolute position the entry came from
    bool repair_pending = false;  // retrieve repair in flight: answer no-op
  };

  // Dequeue path for a task_request pass. A miss on an empty queue leaves
  // retrieve_ptr over-incremented on purpose (corrected by the next enqueue).
  DequeueResult Dequeue(p4::PacketPass& pass);

  struct SwapResult {
    bool swapped = false;   // a valid entry came out; `previous` holds it
    QueueEntry previous;
    uint64_t slot = 0;      // absolute position of the exchange
    uint64_t head = 0;      // retrieve_ptr observed during this pass
    bool past_end = false;  // target >= add_ptr: nothing left to examine
  };

  // Task-swapping pass (§5.1). Exchanges `incoming` with the entry at
  // `swap_indx` — or at the head if `pkt_retrieve_ptr` is stale — without
  // touching either pointer. When past_end, no register write happened and
  // the caller re-enqueues the carried task as a job_submission.
  SwapResult SwapAt(p4::PacketPass& pass, uint64_t pkt_retrieve_ptr, uint64_t swap_indx,
                    const QueueEntry& incoming);

  // Repair-packet pass: overwrite a pointer with an absolute value and clear
  // the corresponding repair flag.
  void ApplyRepair(p4::PacketPass& pass, net::RepairTarget target, uint64_t value);

  // --- Control-plane observability (tests and capacity accounting) ---------
  uint64_t cp_add_ptr() const { return add_ptr_.ControlPlaneRead(0); }
  uint64_t cp_retrieve_ptr() const { return retrieve_ptr_.ControlPlaneRead(0); }
  bool cp_add_repair_flag() const { return repair_state_.ControlPlaneRead(0).add_pending; }
  bool cp_retrieve_repair_flag() const {
    return repair_state_.ControlPlaneRead(0).retrieve_pending;
  }
  // Number of retrievable tasks right now (clamped at 0 during an overrun).
  uint64_t cp_occupancy() const;

 private:
  size_t capacity_;
  bool shadow_copy_dequeue_;
  p4::RegisterArray<uint64_t> add_ptr_;
  p4::RegisterArray<uint64_t> add_shadow_;
  p4::RegisterArray<uint64_t> retrieve_ptr_;
  p4::RegisterArray<RepairState> repair_state_;
  p4::RegisterArray<QueueEntry> entries_;
};

}  // namespace draconis::core

#endif  // DRACONIS_CORE_SWITCH_QUEUE_H_
