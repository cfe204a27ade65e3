// Discrete-event simulator.
//
// The simulator owns a virtual clock and a slab of event slots indexed by a
// pluggable event queue of (time, sequence, slot) keys. Events scheduled for
// the same instant run in scheduling order (the sequence number breaks
// ties), which gives the deterministic serial packet ordering the switch
// model relies on.
//
// One event kind: every event is a call sink->OnEvent(a, b) on an EventSink
// with two 32-bit words.
//
//   sim.ScheduleAt(at, &sink, a, b);                       // fire-and-forget
//   EventHandle h = sim.ScheduleAt(at, &sink, a, b, kCancellable);
//   timer.Bind(&sim, &sink, a, b);  timer.ScheduleAt(at);  // reusable
//
// An object with one or two kinds of event is itself the sink and tells
// them apart by a word (a TaskRunner's task end is (core, 0); its pull timer
// another kind); one with more keeps a MemberSink per kind (net::Network's
// hop steps). Passing `kCancellable` opts into a handle. `Timer` is the
// reusable-event path for high-frequency periodic callers (executor pull
// loops and the like): its slot and words are bound once and re-arming
// costs one queue push.
//
//   sim.ScheduleAt(at, fn);                  // cold: a std::function
//
// The one closure entry is an out-of-line adapter for code off the hot path
// (an experiment's window markers, tests): the closure waits in a store the
// simulator owns, which is itself the sink of those events.
//
// Engine layout:
//  - Slots live in a free-listed slab split into a hot generation array
//    (one word per slot — all the dequeue validation scan ever touches) and
//    a cold 16-byte payload array (the sink's address and the two words; a
//    free slot's first word links the freelist). Slots are recycled after
//    an event fires or is cancelled, so steady-state scheduling does not
//    grow any container.
//  - The queue orders trivially copyable 24-byte keys; the payload never
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

// Tag selecting the cancellable ScheduleAt overload:
//   sim.ScheduleAt(at, &sink, a, b, kCancellable)
struct CancellableTag {
  explicit CancellableTag() = default;
};
inline constexpr CancellableTag kCancellable{};

// The receiver of events: Simulator::ScheduleAt(at, sink, a, b) fires as
// sink->OnEvent(a, b). The sink must outlive its pending events.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(uint32_t a, uint32_t b) = 0;
};

// The sink of one kind of event of `Owner`, for an owner with more kinds
// than its words can tell apart: fires as (owner->*Method)(a, b).
template <typename Owner, void (Owner::*Method)(uint32_t, uint32_t)>
class MemberSink final : public EventSink {
 public:
  explicit MemberSink(Owner* owner) : owner_(owner) {}
  void OnEvent(uint32_t a, uint32_t b) override { (owner_->*Method)(a, b); }

 private:
  Owner* owner_;
};

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

// A reusable scheduled event: bind its sink and words once, then arm it as
// often as needed. At most one occurrence is pending at a time — re-arming
// replaces the previous one. Firing and re-arming are allocation-free,
// which is what the highest-frequency periodic callers (executor pull
// watchdogs, drain polls) want. The sink may re-arm the timer from its
// OnEvent. Non-copyable: the timer owns its slot.
class Timer {
 public:
  Timer() = default;
  Timer(Simulator* sim, EventSink* sink, uint32_t a, uint32_t b) { Bind(sim, sink, a, b); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer();

  // Registers the timer with `sim`: each occurrence fires as
  // sink->OnEvent(a, b). Must be called exactly once before arming.
  void Bind(Simulator* sim, EventSink* sink, uint32_t a, uint32_t b);

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

  // Schedules sink->OnEvent(a, b) at absolute time `at` (>= Now()),
  // fire-and-forget.
  void ScheduleAt(TimeNs at, EventSink* sink, uint32_t a, uint32_t b) { Push(at, sink, a, b); }

  // The same, with a handle that can cancel it: per-task timers (client
  // timeouts, hedges) use it.
  EventHandle ScheduleAt(TimeNs at, EventSink* sink, uint32_t a, uint32_t b, CancellableTag) {
    const uint32_t slot = Push(at, sink, a, b);
    return EventHandle(this, slot, gens_[slot] - 1);
  }

  // Schedules fn at `at` (>= Now()), fire-and-forget. Cold: fn waits in the
  // simulator's closure store, so keep it off per-task and per-packet paths.
  void ScheduleAt(TimeNs at, std::function<void()> fn);

  // Runs events until the queue drains or the clock passes `until`.
  // Events scheduled exactly at `until` still run. Returns the number of
  // events executed.
  uint64_t RunUntil(TimeNs until);

  // Runs until the queue is completely empty.
  uint64_t RunAll();

  // Ends the run: drops every pending event and the closures they held.
  // Outstanding handles and timers all report !pending() afterwards.
  //
  // Only the events go. Their owners keep the state they hold for them:
  // SwitchPipeline's flush_armed_ and recirculation FIFO, and Client's
  // queue-full retry FIFO. So nothing may be sent through a pipeline, the
  // network or a client after Clear(): a same-instant group would never
  // flush, and the recirculation FIFO would trip its CHECK. The one
  // production caller is DrainCheck (cluster/experiment.cc), which stops a
  // run once its source is done and every client has drained.
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

  // A slot's target word is its EventSink's address; a timer's slot, which
  // the timer keeps across firings, has this bit set too (a sink is aligned,
  // so bit 0 is free).
  static constexpr uintptr_t kPinnedTag = 1;

  // Cold per-slot state; the hot liveness word lives in gens_ so the run
  // loop's stale-key scan touches one cache line per ~8 keys instead of one
  // per slot.
  struct Payload {
    uintptr_t target = 0;  // EventSink*, tagged kPinnedTag for a timer
    // The event's two words. Free slots: words[0] links the freelist.
    uint32_t words[2] = {kNilSlot, 0};

    bool pinned() const { return (target & kPinnedTag) != 0; }
  };
  static_assert(sizeof(Payload) == 16, "the payload slab must not grow");
  static_assert(alignof(EventSink) > 1, "kPinnedTag needs bit 0 free");

  // The closures of ScheduleAt(at, fn), until they fire or Clear() drops
  // them; the event's first word is the closure's index here.
  class ClosureStore final : public EventSink {
   public:
    uint32_t Put(std::function<void()> fn);
    // Moves the closure out, frees its index, then calls it.
    void OnEvent(uint32_t index, uint32_t) override;

   private:
    std::vector<std::function<void()>> fns_;
    std::vector<uint32_t> free_;
  };

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  // Takes a slot for a one-shot event at `at`, draws its sequence number,
  // queues its key and fills its payload. The key stays in scalars until
  // the queue stores it: a 24-byte EventKey built here would be written
  // field by field and read back whole, and that read cannot be forwarded
  // from the store buffer.
  uint32_t Push(TimeNs at, EventSink* sink, uint32_t a, uint32_t b);
  // Enum dispatch to a concrete backend; both calls devirtualize.
  void QueuePush(TimeNs at, uint64_t seq, uint32_t slot);
  uint64_t Run(bool bounded, TimeNs until);
  template <typename Queue>
  uint64_t RunLoop(Queue& queue, bool bounded, TimeNs until);
  template <typename Queue>
  bool LiveKeyDueNow(Queue& queue);

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
  ClosureStore closures_;
  EventHeap heap_;
  LadderQueue ladder_;
};

static_assert(sizeof(Timer) == 16, "a Timer is its simulator and its slot");

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

inline uint32_t Simulator::Push(TimeNs at, EventSink* sink, uint32_t a, uint32_t b) {
  DRACONIS_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
  const uint64_t seq = next_seq_++;
  const uint32_t slot = AllocSlot();
  gens_[slot] = seq + 1;
  QueuePush(at, seq, slot);
  ++live_;
  Payload& p = payloads_[slot];
  p.target = reinterpret_cast<uintptr_t>(sink);
  p.words[0] = a;
  p.words[1] = b;
  return slot;
}

// Timer re-arm is the other per-event hot path (executor pull loops re-arm
// from inside OnEvent), so it inlines the same way.

inline void Timer::ScheduleAt(TimeNs at) {
  DRACONIS_CHECK_MSG(sim_ != nullptr, "Timer used before Bind()");
  DRACONIS_CHECK_MSG(at >= sim_->now_, "cannot schedule an event in the past");
  if (sim_->gens_[slot_] == 0) {
    ++sim_->live_;
  }
  const uint64_t seq = sim_->next_seq_++;
  sim_->gens_[slot_] = seq + 1;  // any previously pushed key goes stale
  sim_->QueuePush(at, seq, slot_);
}

inline void Timer::ScheduleAfter(TimeNs delay) {
  DRACONIS_CHECK_MSG(sim_ != nullptr, "Timer used before Bind()");
  DRACONIS_CHECK(delay >= 0);
  ScheduleAt(sim_->Now() + delay);
}

inline void Timer::Cancel() {
  if (pending()) {
    sim_->gens_[slot_] = 0;
    --sim_->live_;
  }
}

inline bool Timer::pending() const { return sim_ != nullptr && sim_->gens_[slot_] != 0; }

}  // namespace draconis::sim

#endif  // DRACONIS_SIM_SIMULATOR_H_
