#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace draconis::sim {

// --- EventHandle -------------------------------------------------------------

void EventHandle::Cancel() {
  if (sim_ != nullptr) {
    sim_->CancelHandle(*this);
  }
}

bool EventHandle::pending() const { return sim_ != nullptr && sim_->HandlePending(*this); }

// --- Timer -------------------------------------------------------------------

Timer::~Timer() {
  if (sim_ != nullptr) {
    sim_->UnregisterTimer(*this);
  }
}

void Timer::Bind(Simulator* sim, std::function<void()> fn) {
  DRACONIS_CHECK_MSG(sim_ == nullptr, "Timer bound twice");
  DRACONIS_CHECK(sim != nullptr && fn != nullptr);
  sim_ = sim;
  fn_ = std::move(fn);
  slot_ = sim_->RegisterTimer(this);
}

// --- Simulator: slab ---------------------------------------------------------

void Simulator::FreeSlot(uint32_t slot) {
  Payload& p = payloads_[slot];
  p.fn = nullptr;
  p.target = 0;
  gens_[slot] = 0;
  p.words[0] = free_head_;
  free_head_ = slot;
}

// --- Simulator: run loop -----------------------------------------------------

// Monomorphized per backend (Queue is a concrete `final` class, so the
// Peek/Pop calls inline) — the enum dispatch happens once per Run, not per
// event. The count of executed events stays in a register and Run adds it
// to executed_ once: incremented per event next to live_, the two counters
// would be merged into one 16-byte read-modify-write that waits on the
// 8-byte store of live_ the previous event's Claim has just made.
template <typename Queue>
uint64_t Simulator::RunLoop(Queue& queue, bool bounded, TimeNs until) {
  uint64_t ran = 0;
  EventKey key;
  while (queue.PeekTop(&key)) {
    if (bounded && key.at > until) {
      break;
    }
    queue.PopTop();
    if (gens_[key.slot] != key.seq + 1) {
      continue;  // cancelled, or a re-armed timer superseded this key
    }
    gens_[key.slot] = 0;
    --live_;
    now_ = key.at;
    ++ran;
    Payload& p = payloads_[key.slot];
    // Don't touch the slot after a call: the callee may schedule events and
    // grow the slab.
    if (p.target == 0) {
      std::function<void()> fn = std::move(p.fn);
      // Minimal free: `fn` was just moved out (leaving the slot's empty), so
      // only relink the freelist.
      p.words[0] = free_head_;
      free_head_ = key.slot;
      fn();
    } else if ((p.target & kTypedTag) != 0) {
      auto* sink = reinterpret_cast<EventSink*>(p.target & ~kTypedTag);
      const uint32_t a = p.words[0];
      const uint32_t b = p.words[1];
      p.target = 0;
      p.words[0] = free_head_;
      free_head_ = key.slot;
      sink->OnEvent(a, b);
    } else {
      // Persistent slot: the callback lives in the Timer (stable storage)
      // and may re-arm it.
      reinterpret_cast<Timer*>(p.target)->fn_();
    }
  }
  if (bounded && now_ < until) {
    now_ = until;
  }
  return ran;
}

uint64_t Simulator::Run(bool bounded, TimeNs until) {
  const uint64_t ran = backend_ == QueueBackend::kLadder ? RunLoop(ladder_, bounded, until)
                                                         : RunLoop(heap_, bounded, until);
  executed_ += ran;
  return ran;
}

template <typename Queue>
bool Simulator::LiveKeyDueNow(Queue& queue) {
  EventKey key;
  while (queue.PeekTop(&key) && key.at <= now_) {
    if (gens_[key.slot] == key.seq + 1) {
      return true;
    }
    queue.PopTop();
  }
  return false;
}

bool Simulator::AnyEventDueNow() {
  if (backend_ == QueueBackend::kLadder) {
    return LiveKeyDueNow(ladder_);
  }
  return LiveKeyDueNow(heap_);
}

uint64_t Simulator::RunUntil(TimeNs until) {
  const uint64_t ran = Run(/*bounded=*/true, until);
  for (OffQueueWork* work : off_queue_) {
    work->SettleThrough(until);
  }
  return ran;
}

uint64_t Simulator::RunAll() { return Run(/*bounded=*/false, 0); }

void Simulator::Clear() {
  for (OffQueueWork* work : off_queue_) {
    work->Discard();
  }
  if (backend_ == QueueBackend::kLadder) {
    ladder_.Clear();
  } else {
    heap_.Clear();
  }
  for (uint32_t slot = 0; slot < gens_.size(); ++slot) {
    if (gens_[slot] == 0) {
      continue;
    }
    gens_[slot] = 0;
    if (!payloads_[slot].pinned()) {
      FreeSlot(slot);
    }
  }
  live_ = 0;
}

void Simulator::RemoveOffQueueWork(OffQueueWork* work) {
  off_queue_.erase(std::remove(off_queue_.begin(), off_queue_.end(), work), off_queue_.end());
}

// --- Simulator: handle plumbing ----------------------------------------------

void Simulator::CancelHandle(const EventHandle& handle) {
  if (gens_[handle.slot_] == handle.gen_ + 1) {
    --live_;
    FreeSlot(handle.slot_);  // releases the closure; the queue key goes stale
  }
}

bool Simulator::HandlePending(const EventHandle& handle) const {
  return gens_[handle.slot_] == handle.gen_ + 1;
}

// --- Simulator: timer plumbing -----------------------------------------------

uint32_t Simulator::RegisterTimer(Timer* timer) {
  const uint32_t slot = AllocSlot();
  payloads_[slot].target = reinterpret_cast<uintptr_t>(timer);
  return slot;
}

void Simulator::UnregisterTimer(const Timer& timer) {
  if (gens_[timer.slot_] != 0) {
    --live_;
  }
  FreeSlot(timer.slot_);
}

}  // namespace draconis::sim
