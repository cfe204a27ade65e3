#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace draconis::sim {

// --- EventHandle -------------------------------------------------------------

void EventHandle::Cancel() {
  if (pending()) {
    --sim_->live_;
    sim_->FreeSlot(slot_);  // the queue key goes stale
  }
}

bool EventHandle::pending() const { return sim_ != nullptr && sim_->gens_[slot_] == gen_ + 1; }

// --- Timer -------------------------------------------------------------------

Timer::~Timer() {
  if (sim_ != nullptr) {
    Cancel();
    sim_->FreeSlot(slot_);
  }
}

void Timer::Bind(Simulator* sim, EventSink* sink, uint32_t a, uint32_t b) {
  DRACONIS_CHECK_MSG(sim_ == nullptr, "Timer bound twice");
  DRACONIS_CHECK(sim != nullptr && sink != nullptr);
  sim_ = sim;
  slot_ = sim->AllocSlot();
  Simulator::Payload& p = sim->payloads_[slot_];
  p.target = reinterpret_cast<uintptr_t>(sink) | Simulator::kPinnedTag;
  p.words[0] = a;
  p.words[1] = b;
}

// --- Simulator: slab ---------------------------------------------------------

void Simulator::FreeSlot(uint32_t slot) {
  gens_[slot] = 0;
  payloads_[slot].words[0] = free_head_;
  free_head_ = slot;
}

// --- Simulator: closures -----------------------------------------------------

void Simulator::ScheduleAt(TimeNs at, std::function<void()> fn) {
  DRACONIS_CHECK(fn != nullptr);
  const uint32_t slot = Push(at, &closures_, 0, 0);
  payloads_[slot].words[0] = closures_.Put(std::move(fn));
}

uint32_t Simulator::ClosureStore::Put(std::function<void()> fn) {
  if (free_.empty()) {
    fns_.push_back(std::move(fn));
    return static_cast<uint32_t>(fns_.size() - 1);
  }
  const uint32_t index = free_.back();
  free_.pop_back();
  fns_[index] = std::move(fn);
  return index;
}

void Simulator::ClosureStore::OnEvent(uint32_t index, uint32_t /*unused*/) {
  // Moved out first: the closure may schedule more and grow the store.
  std::function<void()> fn = std::move(fns_[index]);
  fns_[index] = nullptr;
  free_.push_back(index);
  fn();
}

// --- Simulator: run loop -----------------------------------------------------

// Monomorphized per backend (Queue is a concrete `final` class, so the
// Peek/Pop calls inline) — the enum dispatch happens once per Run, not per
// event. The count of executed events stays in a register and Run adds it
// to executed_ once: incremented per event next to live_, the two counters
// would be merged into one 16-byte read-modify-write that waits on the
// 8-byte store of live_ the previous event's Push has just made.
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
    auto* sink = reinterpret_cast<EventSink*>(p.target & ~kPinnedTag);
    const uint32_t a = p.words[0];
    const uint32_t b = p.words[1];
    // A one-shot slot is free before the call, which may schedule events
    // and grow the slab; a timer keeps its slot, and the sink may re-arm it.
    if (!p.pinned()) {
      p.words[0] = free_head_;
      free_head_ = key.slot;
    }
    sink->OnEvent(a, b);
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
    if (gens_[slot] != 0 && !payloads_[slot].pinned()) {
      FreeSlot(slot);
    }
    gens_[slot] = 0;  // a timer keeps its slot
  }
  live_ = 0;
  closures_ = ClosureStore();
}

void Simulator::RemoveOffQueueWork(OffQueueWork* work) {
  off_queue_.erase(std::remove(off_queue_.begin(), off_queue_.end(), work), off_queue_.end());
}

}  // namespace draconis::sim
