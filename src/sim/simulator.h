// Discrete-event simulator.
//
// The simulator owns a virtual clock and a slab of event slots indexed by a
// pluggable event queue of (time, sequence, slot) keys. Events scheduled for
// the same instant run in scheduling order (the sequence number breaks
// ties), which gives the deterministic serial packet ordering the switch
// model relies on.
//
// Scheduling surface: one orthogonal pair.
//
//   sim.ScheduleAt(at, fn);                  // fire-and-forget
//   sim.ScheduleAfter(delay, fn);
//   EventHandle h = sim.ScheduleAt(at, fn, kCancellable);   // cancellable
//   EventHandle h = sim.ScheduleAfter(delay, fn, kCancellable);
//
// The fire-and-forget default is the zero-overhead path; passing
// `kCancellable` opts into a handle. `Timer` is the reusable-event path for
// high-frequency periodic callers (executor pull loops and the like): the
// callback is stored once and re-arming costs one queue push — no
// per-occurrence allocation at all.
//
//   sim.ScheduleAt(at, &sink, a, b);         // typed: sink.OnEvent(a, b)
//   EventHandle h = sim.ScheduleAt(at, &sink, a, b, kCancellable);
//
// The typed event carries an EventSink pointer and two words, which the run
// loop passes straight to OnEvent with no closure to build, move, invoke
// through a manager, or destroy. The per-packet hops (net::Network) use the
// fire-and-forget form; the per-task timers (the client's timeouts, the DAG
// driver's hedges) use the cancellable one, with the task's (jid, tid) as
// the two words.
//
// Engine layout:
//  - Slots live in a free-listed slab split into a hot generation array
//    (one word per slot — all the dequeue validation scan ever touches) and
//    a cold 48-byte payload array (closure, then one target word and two
//    data words that a timer, a typed event and the freelist link share).
//    Slots are recycled after an event fires or is cancelled, so
//    steady-state scheduling does not grow any container.
//  - The queue orders trivially copyable 24-byte keys; the closure never
//    moves. Two backends — the ladder queue (default) and the binary heap —
//    are selected at construction and produce bit-identical execution order
//    (see event_queue.h). Both are held as concrete `final` members behind
//    an enum dispatch, so the run loop is fully devirtualized.
//  - Cancellation is O(1) and allocation-free: handles carry the slot index
//    plus the generation the slot had when the event was scheduled. A
//    cancelled or fired slot bumps to a new generation on reuse, so a stale
//    handle can never touch the slot's next occupant. Cancelled events are
//    dropped lazily when their queue key surfaces. The ladder backend reads
//    the generation words too, so it drops a dead key the next time it
//    re-spreads it instead of carrying it down to the run loop.
//
// Handles and timers index into the simulator's slab and must not outlive
// it (in practice they are members of objects that already hold the
// `Simulator*`, declared after the simulator and destroyed before it).

#ifndef DRACONIS_SIM_SIMULATOR_H_
#define DRACONIS_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.h"
#include "common/time.h"
#include "sim/event_heap.h"
#include "sim/event_queue.h"
#include "sim/ladder_queue.h"

namespace draconis::sim {

class Simulator;

// Tag selecting the cancellable Schedule{At,After} overloads:
//   sim.ScheduleAfter(delay, fn, kCancellable)
struct CancellableTag {
  explicit CancellableTag() = default;
};
inline constexpr CancellableTag kCancellable{};

// Handle for a scheduled event that may be cancelled before it fires.
// Copies refer to the same underlying event and observe each other's
// cancellation. After the event fires or is cancelled, every copy reports
// !pending() and further Cancel() calls are no-ops — including when the
// slot has been recycled for a newer event (the generation check).
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Safe to call repeatedly and on
  // default-constructed handles.
  void Cancel();

  // True if the event is still going to fire.
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, uint32_t slot, uint64_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t gen_ = 0;
};

// A reusable scheduled callback: bind the closure once, then arm it as often
// as needed. At most one occurrence is pending at a time — re-arming
// replaces the previous one. Firing and re-arming are allocation-free,
// which is what the highest-frequency periodic callers (executor pull
// watchdogs, drain polls) want. The callback may re-arm its own timer.
// Non-copyable and non-movable: the simulator holds a pointer to it.
class Timer {
 public:
  Timer() = default;
  Timer(Simulator* sim, std::function<void()> fn) { Bind(sim, std::move(fn)); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer();

  // Registers the timer with `sim` and stores its callback. Must be called
  // exactly once before arming (two-phase init for members whose callback
  // captures `this`).
  void Bind(Simulator* sim, std::function<void()> fn);

  // Arms the timer to fire at `at` / after `delay`, replacing any pending
  // occurrence.
  void ScheduleAt(TimeNs at);
  void ScheduleAfter(TimeNs delay);

  // Disarms the pending occurrence, if any.
  void Cancel();

  // True if an occurrence is armed and has not fired yet.
  bool pending() const;

 private:
  friend class Simulator;
  Simulator* sim_ = nullptr;
  uint32_t slot_ = 0;
  std::function<void()> fn_;
};

// The receiver of typed events: Simulator::ScheduleAt(at, sink, a, b) fires
// as sink->OnEvent(a, b). The sink must outlive its pending events.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(uint32_t a, uint32_t b) = 0;
};

// Work kept outside the event queue that still advances with the clock: the
// Draconis deployment parks idle poll trains this way (core/poll_roster.h).
// The simulator tells it where a run stopped, so whatever a caller reads
// after RunUntil or Clear includes it.
class OffQueueWork {
 public:
  virtual ~OffQueueWork() = default;
  // RunUntil(until) has run every event at or before `until`.
  virtual void SettleThrough(TimeNs until) = 0;
  // Clear() is dropping every pending event: account what happened strictly
  // before Now(), and drop the rest.
  virtual void Discard() = 0;
};

class Simulator {
 public:
  explicit Simulator(QueueBackend backend = kDefaultQueueBackend)
      : backend_(backend) {
    ladder_.AttachLiveness(&gens_);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }
  QueueBackend queue_backend() const { return backend_; }

  // Schedules fn at absolute time `at` (>= Now()), fire-and-forget.
  void ScheduleAt(TimeNs at, std::function<void()> fn);

  // Schedules fn after a relative delay (>= 0), fire-and-forget.
  void ScheduleAfter(TimeNs delay, std::function<void()> fn);

  // Cancellable variants: return a handle that can cancel the event.
  EventHandle ScheduleAt(TimeNs at, std::function<void()> fn, CancellableTag);
  EventHandle ScheduleAfter(TimeNs delay, std::function<void()> fn,
                            CancellableTag);

  // Schedules the typed event sink->OnEvent(a, b) at `at` (>= Now()),
  // fire-and-forget. It takes a sequence number like any other event.
  void ScheduleAt(TimeNs at, EventSink* sink, uint32_t a, uint32_t b);

  // Cancellable typed event: per-task timers (client timeouts, hedges) use
  // it so that no closure is built per task.
  EventHandle ScheduleAt(TimeNs at, EventSink* sink, uint32_t a, uint32_t b, CancellableTag);

  // Runs events until the queue drains or the clock passes `until`.
  // Events scheduled exactly at `until` still run. Returns the number of
  // events executed.
  uint64_t RunUntil(TimeNs until);

  // Runs until the queue is completely empty.
  uint64_t RunAll();

  // Drops every pending event (used to tear down a run that has reached its
  // measurement horizon without draining executor loops). Outstanding
  // handles and timers all report !pending() afterwards.
  void Clear();

  // True if a live event is queued to fire at Now(). Called from inside an
  // event, a false answer means an event scheduled at Now() would fire next,
  // so the caller may run it inline instead (net::Network does this for
  // zero-cost hops). Cancelled or superseded keys at the queue top are
  // popped while looking; the run loop would discard them anyway.
  bool AnyEventDueNow();

  // Number of live (scheduled, not yet fired or cancelled) events.
  size_t pending_events() const { return live_; }
  // Events executed by completed runs; a run adds its count when it returns,
  // so an event reading this mid-run does not see its own run's events.
  uint64_t executed_events() const { return executed_; }

  // Registers / unregisters off-queue work (see OffQueueWork). It must
  // unregister before it is destroyed.
  void AddOffQueueWork(OffQueueWork* work) { off_queue_.push_back(work); }
  void RemoveOffQueueWork(OffQueueWork* work);

 private:
  friend class EventHandle;
  friend class Timer;

  static constexpr uint32_t kNilSlot = UINT32_MAX;

  // A typed slot's target word is its EventSink's address with this bit
  // set; a timer slot's is its Timer's address (both aligned, so bit 0 is
  // free); a closure slot's is 0.
  static constexpr uintptr_t kTypedTag = 1;

  // Cold per-slot state; the hot liveness word lives in gens_ so the run
  // loop's stale-key scan touches one cache line per ~8 keys instead of one
  // per slot. A slot is a closure, a timer or a typed event, and the last
  // two share the target and data words with the freelist link.
  struct Payload {
    std::function<void()> fn;  // closure slots; empty otherwise
    uintptr_t target = 0;      // Timer* or tagged EventSink*; 0 for closures
    // Typed slots: the event's two words. Free slots: words[0] links the
    // freelist.
    uint32_t words[2] = {kNilSlot, 0};

    bool pinned() const { return target != 0 && (target & kTypedTag) == 0; }
  };
  // Timer slots number in the tens of thousands on big fleets, so the
  // typed event reuses a timer's words instead of growing the slot.
  static_assert(sizeof(Payload) == 48, "the payload slab must not grow");
  static_assert(alignof(Timer) > 1 && alignof(EventSink) > 1, "kTypedTag needs bit 0 free");

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  // Takes a slot for a one-shot event at `at`, draws its sequence number and
  // queues its key; the caller fills the payload. The key stays in scalars
  // until the queue stores it: a 24-byte EventKey built here would be
  // written field by field and read back whole, and that read cannot be
  // forwarded from the store buffer.
  uint32_t Claim(TimeNs at);
  // Schedules a one-shot closure or typed event; returns its slot.
  uint32_t Push(TimeNs at, std::function<void()> fn);
  uint32_t PushTyped(TimeNs at, EventSink* sink, uint32_t a, uint32_t b);
  // The handle of the one-shot event just scheduled into `slot`.
  EventHandle HandleFor(uint32_t slot);
  // Enum dispatch to a concrete backend; both calls devirtualize.
  void QueuePush(TimeNs at, uint64_t seq, uint32_t slot);
  uint64_t Run(bool bounded, TimeNs until);
  template <typename Queue>
  uint64_t RunLoop(Queue& queue, bool bounded, TimeNs until);
  template <typename Queue>
  bool LiveKeyDueNow(Queue& queue);

  // Timer plumbing.
  uint32_t RegisterTimer(Timer* timer);
  void UnregisterTimer(const Timer& timer);
  void ArmTimer(const Timer& timer, TimeNs at);
  void DisarmTimer(const Timer& timer);
  bool TimerPending(const Timer& timer) const;

  // EventHandle plumbing.
  void CancelHandle(const EventHandle& handle);
  bool HandlePending(const EventHandle& handle) const;

  const QueueBackend backend_;
  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t live_ = 0;
  uint32_t free_head_ = kNilSlot;
  // Hot: generation + liveness in one word per slot — `seq + 1` of the
  // current occupancy while armed, 0 once it fires / is cancelled /
  // is disarmed. A queue key or handle is live iff this equals its own
  // seq + 1, which makes pop-validation and stale-handle rejection a single
  // compare.
  std::vector<uint64_t> gens_;
  std::vector<Payload> payloads_;  // cold, parallel to gens_
  std::vector<OffQueueWork*> off_queue_;
  EventHeap heap_;
  LadderQueue ladder_;
};

// The scheduling fast path is header-inline: benches and the cluster layers
// schedule millions of events per run, and the slab + queue push should
// flatten into the caller.

inline uint32_t Simulator::AllocSlot() {
  if (free_head_ != kNilSlot) {
    const uint32_t slot = free_head_;
    free_head_ = payloads_[slot].words[0];
    return slot;
  }
  gens_.push_back(0);
  payloads_.emplace_back();
  return static_cast<uint32_t>(gens_.size() - 1);
}

inline void Simulator::QueuePush(TimeNs at, uint64_t seq, uint32_t slot) {
  if (backend_ == QueueBackend::kLadder) {
    ladder_.Push(at, seq, slot);
  } else {
    heap_.Push(EventKey{at, seq, slot});
  }
}

inline uint32_t Simulator::Claim(TimeNs at) {
  DRACONIS_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
  const uint64_t seq = next_seq_++;
  const uint32_t slot = AllocSlot();
  gens_[slot] = seq + 1;
  QueuePush(at, seq, slot);
  ++live_;
  return slot;
}

inline uint32_t Simulator::Push(TimeNs at, std::function<void()> fn) {
  const uint32_t slot = Claim(at);
  payloads_[slot].fn = std::move(fn);
  return slot;
}

inline uint32_t Simulator::PushTyped(TimeNs at, EventSink* sink, uint32_t a, uint32_t b) {
  const uint32_t slot = Claim(at);
  Payload& p = payloads_[slot];
  p.target = reinterpret_cast<uintptr_t>(sink) | kTypedTag;
  p.words[0] = a;
  p.words[1] = b;
  return slot;
}

inline EventHandle Simulator::HandleFor(uint32_t slot) {
  return EventHandle(this, slot, gens_[slot] - 1);
}

inline void Simulator::ScheduleAt(TimeNs at, EventSink* sink, uint32_t a, uint32_t b) {
  PushTyped(at, sink, a, b);
}

inline EventHandle Simulator::ScheduleAt(TimeNs at, EventSink* sink, uint32_t a, uint32_t b,
                                         CancellableTag) {
  return HandleFor(PushTyped(at, sink, a, b));
}

inline void Simulator::ScheduleAt(TimeNs at, std::function<void()> fn) {
  Push(at, std::move(fn));
}

inline void Simulator::ScheduleAfter(TimeNs delay, std::function<void()> fn) {
  DRACONIS_CHECK(delay >= 0);
  Push(now_ + delay, std::move(fn));
}

inline EventHandle Simulator::ScheduleAt(TimeNs at, std::function<void()> fn,
                                         CancellableTag) {
  return HandleFor(Push(at, std::move(fn)));
}

inline EventHandle Simulator::ScheduleAfter(TimeNs delay,
                                            std::function<void()> fn,
                                            CancellableTag) {
  DRACONIS_CHECK(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn), kCancellable);
}

// Timer re-arm is the other per-event hot path (executor pull loops re-arm
// from inside the callback), so it inlines the same way.

inline void Simulator::ArmTimer(const Timer& timer, TimeNs at) {
  DRACONIS_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
  if (gens_[timer.slot_] == 0) {
    ++live_;
  }
  const uint64_t seq = next_seq_++;
  gens_[timer.slot_] = seq + 1;  // any previously pushed key goes stale
  QueuePush(at, seq, timer.slot_);
}

inline void Simulator::DisarmTimer(const Timer& timer) {
  if (gens_[timer.slot_] != 0) {
    gens_[timer.slot_] = 0;
    --live_;
  }
}

inline bool Simulator::TimerPending(const Timer& timer) const {
  return gens_[timer.slot_] != 0;
}

inline void Timer::ScheduleAt(TimeNs at) {
  DRACONIS_CHECK_MSG(sim_ != nullptr, "Timer used before Bind()");
  sim_->ArmTimer(*this, at);
}

inline void Timer::ScheduleAfter(TimeNs delay) {
  DRACONIS_CHECK_MSG(sim_ != nullptr, "Timer used before Bind()");
  DRACONIS_CHECK(delay >= 0);
  sim_->ArmTimer(*this, sim_->Now() + delay);
}

inline void Timer::Cancel() {
  if (sim_ != nullptr) {
    sim_->DisarmTimer(*this);
  }
}

inline bool Timer::pending() const {
  return sim_ != nullptr && sim_->TimerPending(*this);
}

}  // namespace draconis::sim

#endif  // DRACONIS_SIM_SIMULATOR_H_
