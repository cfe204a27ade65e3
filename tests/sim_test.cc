#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/simulator.h"

namespace draconis::sim {
namespace {

// Every engine test runs on both queue backends: the contract (ordering,
// cancellation, clock behavior) is backend-independent.
class SimulatorTest : public ::testing::TestWithParam<QueueBackend> {};

std::string BackendName(const ::testing::TestParamInfo<QueueBackend>& info) {
  return QueueBackendName(info.param);
}

// The test-side sink of closures, for tests that want one per event or per
// timer: event (i, 0) calls the i-th closure added.
class Closures final : public EventSink {
 public:
  uint32_t Add(std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    return static_cast<uint32_t>(fns_.size() - 1);
  }
  void OnEvent(uint32_t i, uint32_t /*unused*/) override { fns_[i](); }

 private:
  std::deque<std::function<void()>> fns_;  // stable: a call may add more
};

// Schedules `fn` through `calls` at `at`, with a handle.
EventHandle CancellableAt(Simulator& s, Closures& calls, TimeNs at, std::function<void()> fn) {
  return s.ScheduleAt(at, &calls, calls.Add(std::move(fn)), 0, kCancellable);
}

TEST_P(SimulatorTest, StartsAtZero) {
  Simulator s(GetParam());
  EXPECT_EQ(s.Now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.queue_backend(), GetParam());
}

TEST_P(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator s(GetParam());
  std::vector<int> order;
  s.ScheduleAt(30, [&] { order.push_back(3); });
  s.ScheduleAt(10, [&] { order.push_back(1); });
  s.ScheduleAt(20, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30);
}

TEST_P(SimulatorTest, SameTimeEventsRunInSchedulingOrder) {
  Simulator s(GetParam());
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  s.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST_P(SimulatorTest, AfterIsRelative) {
  Simulator s(GetParam());
  Closures calls;
  TimeNs fired_at = -1;
  Timer t(&s, &calls, calls.Add([&] { fired_at = s.Now(); }), 0);
  s.ScheduleAt(100, [&] { t.ScheduleAfter(50); });
  s.RunAll();
  EXPECT_EQ(fired_at, 150);
}

TEST_P(SimulatorTest, RunUntilStopsAtBoundaryInclusive) {
  Simulator s(GetParam());
  int fired = 0;
  s.ScheduleAt(10, [&] { ++fired; });
  s.ScheduleAt(20, [&] { ++fired; });
  s.ScheduleAt(21, [&] { ++fired; });
  const uint64_t ran = s.RunUntil(20);
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.Now(), 20);
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST_P(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator s(GetParam());
  s.RunUntil(1000);
  EXPECT_EQ(s.Now(), 1000);
}

TEST_P(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator s(GetParam());
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      s.ScheduleAt(s.Now() + 1, chain);
    }
  };
  s.ScheduleAt(1, chain);
  s.RunAll();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.Now(), 100);
}

TEST_P(SimulatorTest, SchedulingInThePastThrows) {
  Simulator s(GetParam());
  s.ScheduleAt(100, [] {});
  s.RunAll();
  EXPECT_THROW(s.ScheduleAt(50, [] {}), CheckFailure);
}

TEST_P(SimulatorTest, NegativeDelayThrows) {
  Simulator s(GetParam());
  Closures calls;
  Timer t(&s, &calls, calls.Add([] {}), 0);
  EXPECT_THROW(t.ScheduleAfter(-1), CheckFailure);
}

TEST_P(SimulatorTest, CancelPreventsExecution) {
  Simulator s(GetParam());
  Closures calls;
  bool fired = false;
  EventHandle h = CancellableAt(s, calls, 10, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.Cancel();
  EXPECT_FALSE(h.pending());
  s.RunAll();
  EXPECT_FALSE(fired);
}

TEST_P(SimulatorTest, CancelAfterFiringIsSafe) {
  Simulator s(GetParam());
  Closures calls;
  bool fired = false;
  EventHandle h = CancellableAt(s, calls, 10, [&] { fired = true; });
  s.RunAll();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(h.pending());
  h.Cancel();  // no effect, no crash
}

TEST_P(SimulatorTest, DefaultConstructedHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.Cancel();
}

TEST_P(SimulatorTest, ClearDropsPendingEvents) {
  Simulator s(GetParam());
  int fired = 0;
  s.ScheduleAt(10, [&] { ++fired; });
  s.ScheduleAt(20, [&] { ++fired; });
  s.Clear();
  s.RunAll();
  EXPECT_EQ(fired, 0);
}

TEST_P(SimulatorTest, ClearFromWithinEventStopsTheRun) {
  Simulator s(GetParam());
  int fired = 0;
  s.ScheduleAt(10, [&] {
    ++fired;
    s.Clear();
  });
  s.ScheduleAt(20, [&] { ++fired; });
  s.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST_P(SimulatorTest, ExecutedEventsCounter) {
  Simulator s(GetParam());
  for (int i = 0; i < 5; ++i) {
    s.ScheduleAt(i, [] {});
  }
  s.RunAll();
  EXPECT_EQ(s.executed_events(), 5u);
}

TEST_P(SimulatorTest, CancelledEventsAreNotCountedAsExecuted) {
  Simulator s(GetParam());
  Closures calls;
  EventHandle h = CancellableAt(s, calls, 5, [] {});
  h.Cancel();
  s.ScheduleAt(6, [] {});
  s.RunAll();
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST_P(SimulatorTest, DoubleCancelIsSafe) {
  Simulator s(GetParam());
  Closures calls;
  bool fired = false;
  EventHandle h = CancellableAt(s, calls, 10, [&] { fired = true; });
  h.Cancel();
  h.Cancel();  // idempotent
  EXPECT_FALSE(h.pending());
  s.RunAll();
  EXPECT_FALSE(fired);
}

TEST_P(SimulatorTest, HandleCopiesObserveEachOthersCancellation) {
  Simulator s(GetParam());
  Closures calls;
  bool fired = false;
  EventHandle a = CancellableAt(s, calls, 10, [&] { fired = true; });
  EventHandle b = a;
  EXPECT_TRUE(b.pending());
  a.Cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
  b.Cancel();  // already cancelled via the copy; still safe
  s.RunAll();
  EXPECT_FALSE(fired);
}

TEST_P(SimulatorTest, PendingFlipsExactlyAtFireTime) {
  Simulator s(GetParam());
  Closures calls;
  EventHandle h;
  bool pending_during_fire = true;
  h = CancellableAt(s, calls, 10, [&] { pending_during_fire = h.pending(); });
  s.RunUntil(9);
  EXPECT_TRUE(h.pending());  // one tick before the deadline
  s.RunUntil(10);
  EXPECT_FALSE(pending_during_fire);  // already consumed while running
  EXPECT_FALSE(h.pending());
}

TEST_P(SimulatorTest, StaleHandleCannotCancelRecycledSlot) {
  Simulator s(GetParam());
  Closures calls;
  // Fire (and thereby free) the first cancellable event's slot...
  EventHandle stale = CancellableAt(s, calls, 1, [] {});
  s.RunAll();
  EXPECT_FALSE(stale.pending());
  // ...then let a fresh event recycle that slot (LIFO free list: the very
  // next allocation reuses it). The stale handle sees the new generation:
  // pending() stays false and Cancel() must not touch the new occupant.
  bool fired = false;
  EventHandle fresh = CancellableAt(s, calls, 5, [&] { fired = true; });
  EXPECT_FALSE(stale.pending());
  stale.Cancel();
  EXPECT_TRUE(fresh.pending());
  s.RunAll();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(stale.pending());
}

TEST_P(SimulatorTest, ClearInvalidatesOutstandingHandles) {
  Simulator s(GetParam());
  Closures calls;
  bool fired = false;
  EventHandle h = CancellableAt(s, calls, 10, [&] { fired = true; });
  s.Clear();
  EXPECT_FALSE(h.pending());
  h.Cancel();  // no-op on the cleared engine
  s.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, SimulatorTest,
                         ::testing::ValuesIn(AllQueueBackends()), BackendName);

// --- Timer (the reusable-event path) ----------------------------------------

class TimerTest : public ::testing::TestWithParam<QueueBackend> {};

TEST_P(TimerTest, FiresAtScheduledTime) {
  Simulator s(GetParam());
  Closures calls;
  TimeNs fired_at = -1;
  Timer t(&s, &calls, calls.Add([&] { fired_at = s.Now(); }), 0);
  EXPECT_FALSE(t.pending());
  t.ScheduleAt(25);
  EXPECT_TRUE(t.pending());
  s.RunAll();
  EXPECT_EQ(fired_at, 25);
  EXPECT_FALSE(t.pending());
}

TEST_P(TimerTest, RearmReplacesPendingOccurrence) {
  Simulator s(GetParam());
  Closures calls;
  int fired = 0;
  Timer t(&s, &calls, calls.Add([&] { ++fired; }), 0);
  t.ScheduleAt(10);
  t.ScheduleAt(30);  // supersedes the first occurrence
  s.RunUntil(20);
  EXPECT_EQ(fired, 0);  // the time-10 occurrence was replaced, not fired
  s.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.Now(), 30);
}

TEST_P(TimerTest, CancelDisarms) {
  Simulator s(GetParam());
  Closures calls;
  int fired = 0;
  Timer t(&s, &calls, calls.Add([&] { ++fired; }), 0);
  t.ScheduleAfter(10);
  t.Cancel();
  EXPECT_FALSE(t.pending());
  t.Cancel();  // idempotent
  s.RunAll();
  EXPECT_EQ(fired, 0);
}

TEST_P(TimerTest, CallbackCanRearmItsOwnTimer) {
  Simulator s(GetParam());
  Closures calls;
  int fired = 0;
  Timer t;
  t.Bind(&s, &calls, calls.Add([&] {
           if (++fired < 5) {
             t.ScheduleAfter(10);
           }
         }),
         0);
  t.ScheduleAt(10);
  s.RunAll();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.Now(), 50);
}

TEST_P(TimerTest, RearmKeepsSchedulingOrderSemantics) {
  // A timer occurrence armed after a one-shot event at the same instant
  // runs after it (seq is assigned at arm time), and vice versa.
  Simulator s(GetParam());
  Closures calls;
  std::vector<int> order;
  Timer t(&s, &calls, calls.Add([&] { order.push_back(2); }), 0);
  s.ScheduleAt(5, [&] { order.push_back(1); });
  t.ScheduleAt(5);
  s.ScheduleAt(5, [&] { order.push_back(3); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(TimerTest, DestructorCancelsPendingOccurrence) {
  Simulator s(GetParam());
  Closures calls;
  int fired = 0;
  {
    Timer t(&s, &calls, calls.Add([&] { ++fired; }), 0);
    t.ScheduleAfter(10);
    EXPECT_EQ(s.pending_events(), 1u);
  }
  EXPECT_EQ(s.pending_events(), 0u);
  s.RunAll();
  EXPECT_EQ(fired, 0);
}

TEST_P(TimerTest, SlotRecyclingAfterTimerDeathIsSafe) {
  Simulator s(GetParam());
  Closures calls;
  {
    Timer t(&s, &calls, calls.Add([] {}), 0);
    t.ScheduleAfter(100);
  }  // timer dies with an occurrence still keyed in the queue
  // The freed slot is recycled by ordinary events; the stale timer key must
  // not fire them early or at all.
  int fired = 0;
  s.ScheduleAt(100, [&] { ++fired; });
  s.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.executed_events(), 1u);
}

// A sink that owns its timer and re-arms it from its own OnEvent, the shape
// of an executor's pull loop.
class Rearming final : public EventSink {
 public:
  Rearming(Simulator* sim, int limit) : limit_(limit) { timer_.Bind(sim, this, 7, 9); }
  void OnEvent(uint32_t a, uint32_t b) override {
    EXPECT_EQ(a, 7u);
    EXPECT_EQ(b, 9u);
    if (++fired < limit_) {
      timer_.ScheduleAfter(10);
    }
  }
  Timer& timer() { return timer_; }
  int fired = 0;

 private:
  int limit_;
  Timer timer_;
};

TEST_P(TimerTest, SinkRearmsItsOwnTimerFromOnEvent) {
  Simulator s(GetParam());
  Rearming sink(&s, 5);
  sink.timer().ScheduleAt(10);
  EXPECT_EQ(s.pending_events(), 1u);
  s.RunAll();
  EXPECT_EQ(sink.fired, 5);
  EXPECT_EQ(s.Now(), 50);
  EXPECT_EQ(s.executed_events(), 5u);
  EXPECT_FALSE(sink.timer().pending());
  EXPECT_EQ(s.pending_events(), 0u);
  // The slot stays bound: the timer arms again after its loop ended.
  sink.timer().ScheduleAfter(1);
  s.RunAll();
  EXPECT_EQ(sink.fired, 6);
}

// The drain-check shape: a polling timer's sink clears the simulator from
// its own OnEvent while other events, cancellable ones, closures and timers
// are still pending.
class Draining final : public EventSink {
 public:
  Draining(Simulator* sim, int polls) : sim_(sim), polls_(polls) { timer_.Bind(sim, this, 0, 0); }
  void OnEvent(uint32_t /*unused*/, uint32_t /*unused*/) override {
    if (--polls_ == 0) {
      sim_->Clear();
      return;
    }
    timer_.ScheduleAfter(10);
  }
  Timer& timer() { return timer_; }

 private:
  Simulator* sim_;
  int polls_;
  Timer timer_;
};

TEST_P(TimerTest, ClearFromInsideTimerOnEventLeavesNothingPending) {
  Simulator s(GetParam());
  Closures calls;
  Draining drain(&s, 3);
  int fired = 0;
  Timer other(&s, &calls, calls.Add([&] { ++fired; }), 0);
  drain.timer().ScheduleAt(10);
  other.ScheduleAt(100);
  EventHandle h = CancellableAt(s, calls, 200, [&] { ++fired; });
  s.ScheduleAt(300, [&] { ++fired; });
  s.ScheduleAt(25, [&] { ++fired; });  // fires before the drain
  EXPECT_EQ(s.pending_events(), 5u);
  s.RunAll();
  EXPECT_EQ(s.Now(), 30);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_FALSE(drain.timer().pending());
  EXPECT_FALSE(other.pending());
  EXPECT_FALSE(h.pending());
  s.RunAll();
  EXPECT_EQ(fired, 1);
  // A timer arms again on the cleared engine.
  other.ScheduleAfter(5);
  EXPECT_EQ(s.pending_events(), 1u);
  s.RunAll();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.Now(), 35);
}

// --- The closure entry (the simulator's closure store) -----------------------

TEST_P(SimulatorTest, StoredClosureIsDestroyedWhenItFires) {
  Simulator s(GetParam());
  auto token = std::make_shared<int>(0);
  s.ScheduleAt(10, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  s.RunAll();
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
  // Its store index is reused by the next closure, which is destroyed too.
  s.ScheduleAt(20, [token] { ++*token; });
  s.ScheduleAt(20, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 3);
  s.RunAll();
  EXPECT_EQ(*token, 3);
  EXPECT_EQ(token.use_count(), 1);
}

TEST_P(SimulatorTest, StoredClosureIsDestroyedByClear) {
  Simulator s(GetParam());
  auto token = std::make_shared<int>(0);
  s.ScheduleAt(10, [token] { ++*token; });
  s.ScheduleAt(20, [token, &s] {
    ++*token;
    s.Clear();  // the running closure survives; the one at 30 goes
  });
  s.ScheduleAt(30, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 4);
  s.RunUntil(15);
  EXPECT_EQ(token.use_count(), 3);
  s.RunAll();
  EXPECT_EQ(*token, 2);
  EXPECT_EQ(token.use_count(), 1);
  s.ScheduleAt(40, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  s.Clear();
  EXPECT_EQ(token.use_count(), 1);
  s.RunAll();
  EXPECT_EQ(*token, 2);
}

// --- Typed events (the packet-hop path) --------------------------------------

class TypedEventTest : public ::testing::TestWithParam<QueueBackend> {};

// Records each firing as a + 100 * b, with the time it fired at.
class Recorder : public EventSink {
 public:
  Recorder(Simulator* sim, std::vector<int>* order) : sim_(sim), order_(order) {}
  void OnEvent(uint32_t a, uint32_t b) override {
    order_->push_back(static_cast<int>(a + 100 * b));
    fired_at.push_back(sim_->Now());
  }
  std::vector<TimeNs> fired_at;

 private:
  Simulator* sim_;
  std::vector<int>* order_;
};

TEST_P(TypedEventTest, InterleaveWithClosuresAndTimersInAtSeqOrder) {
  Simulator s(GetParam());
  Closures calls;
  std::vector<int> order;
  Recorder sink(&s, &order);
  Timer timer(&s, &calls, calls.Add([&] { order.push_back(-1); }), 0);
  s.ScheduleAt(20, &sink, 4, 0);
  s.ScheduleAt(10, [&] { order.push_back(1); });
  s.ScheduleAt(10, &sink, 2, 0);
  timer.ScheduleAt(10);
  s.ScheduleAt(10, &sink, 3, 1);
  s.ScheduleAt(5, &sink, 0, 7);
  s.ScheduleAt(20, [&] {
    order.push_back(5);
    // Scheduled from inside an event: behind the time-20 keys already drawn.
    s.ScheduleAt(20, &sink, 6, 0);
    s.ScheduleAt(20, [&] { order.push_back(7); });
  });
  EXPECT_EQ(s.pending_events(), 7u);
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{700, 1, 2, -1, 103, 4, 5, 6, 7}));
  EXPECT_EQ(sink.fired_at, (std::vector<TimeNs>{5, 10, 10, 20, 20}));
  EXPECT_EQ(s.executed_events(), 9u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST_P(TypedEventTest, ClearDropsThemAndTheirSlotsAreReused) {
  Simulator s(GetParam());
  Closures calls;
  std::vector<int> order;
  Recorder sink(&s, &order);
  Timer timer(&s, &calls, calls.Add([&] { order.push_back(-1); }), 0);
  for (uint32_t i = 0; i < 5; ++i) {
    s.ScheduleAt(10 + i, &sink, i, 0);
  }
  timer.ScheduleAt(12);
  s.RunUntil(10);
  EXPECT_EQ(order, (std::vector<int>{0}));
  s.Clear();
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_FALSE(timer.pending());
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0}));
  // The freed slots carry new typed events, closures and the timer again.
  s.ScheduleAt(30, &sink, 9, 9);
  s.ScheduleAt(30, [&] { order.push_back(1); });
  timer.ScheduleAt(30);
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 909, 1, -1}));
}

TEST_P(TypedEventTest, RunUntilBoundAndAnyEventDueNowSeeThem) {
  Simulator s(GetParam());
  std::vector<int> order;
  Recorder sink(&s, &order);
  s.ScheduleAt(100, &sink, 1, 0);
  s.RunUntil(99);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(s.Now(), 99);
  EXPECT_EQ(s.pending_events(), 1u);
  s.RunUntil(100);  // inclusive bound
  EXPECT_EQ(order, (std::vector<int>{1}));

  bool due_with_typed = false;
  bool due_alone = true;
  s.ScheduleAt(200, [&] {
    s.ScheduleAt(200, &sink, 2, 0);
    due_with_typed = s.AnyEventDueNow();
  });
  s.ScheduleAt(300, [&] {
    s.ScheduleAt(301, &sink, 3, 0);
    due_alone = s.AnyEventDueNow();
  });
  s.RunAll();
  EXPECT_TRUE(due_with_typed);
  EXPECT_FALSE(due_alone);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// The cancellable typed event (the per-task timer path).

TEST_P(TypedEventTest, CancellableFiresOnceWithItsWords) {
  Simulator s(GetParam());
  std::vector<int> order;
  Recorder sink(&s, &order);
  EventHandle h = s.ScheduleAt(40, &sink, 3, 2, kCancellable);
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(s.pending_events(), 1u);
  s.RunUntil(39);
  EXPECT_TRUE(h.pending());
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{203}));
  EXPECT_EQ(sink.fired_at, (std::vector<TimeNs>{40}));
  EXPECT_FALSE(h.pending());
  h.Cancel();  // after firing: a no-op
  EXPECT_EQ(s.executed_events(), 1u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST_P(TypedEventTest, CancelledOneDoesNotFire) {
  Simulator s(GetParam());
  std::vector<int> order;
  Recorder sink(&s, &order);
  EventHandle cancelled = s.ScheduleAt(10, &sink, 1, 0, kCancellable);
  EventHandle kept = s.ScheduleAt(10, &sink, 2, 0, kCancellable);
  EXPECT_EQ(s.pending_events(), 2u);
  cancelled.Cancel();
  EXPECT_FALSE(cancelled.pending());
  EXPECT_TRUE(kept.pending());
  EXPECT_EQ(s.pending_events(), 1u);
  cancelled.Cancel();  // idempotent
  EXPECT_EQ(s.pending_events(), 1u);
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST_P(TypedEventTest, StaleHandleIsInertOnceItsSlotIsRecycled) {
  Simulator s(GetParam());
  std::vector<int> order;
  Recorder sink(&s, &order);
  EventHandle fired = s.ScheduleAt(5, &sink, 1, 0, kCancellable);
  s.RunAll();
  EventHandle cancelled = s.ScheduleAt(6, &sink, 2, 0, kCancellable);
  cancelled.Cancel();
  // The freelist is LIFO: the next two events take the slots the stale
  // handles point at, one typed and one closure.
  EventHandle fresh = s.ScheduleAt(20, &sink, 3, 0, kCancellable);
  bool closure_fired = false;
  s.ScheduleAt(20, [&] { closure_fired = true; });
  EXPECT_FALSE(fired.pending());
  EXPECT_FALSE(cancelled.pending());
  fired.Cancel();
  cancelled.Cancel();
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(s.pending_events(), 2u);
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(closure_fired);
}

TEST_P(TypedEventTest, ClearInvalidatesCancellableOnes) {
  Simulator s(GetParam());
  std::vector<int> order;
  Recorder sink(&s, &order);
  EventHandle h = s.ScheduleAt(10, &sink, 1, 0, kCancellable);
  s.Clear();
  EXPECT_FALSE(h.pending());
  h.Cancel();  // no-op on the cleared engine
  EXPECT_EQ(s.pending_events(), 0u);
  // The slot is reused and the old handle stays inert.
  EventHandle next = s.ScheduleAt(12, &sink, 2, 0, kCancellable);
  h.Cancel();
  EXPECT_TRUE(next.pending());
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

// A sink that fails the test if it is ever called.
class MustNotFire final : public EventSink {
 public:
  void OnEvent(uint32_t a, uint32_t b) override {
    ADD_FAILURE() << "a cancelled event called its sink with (" << a << ", " << b << ")";
  }
};

TEST_P(TypedEventTest, CancelledOneNeverCallsItsSink) {
  Simulator s(GetParam());
  MustNotFire never;
  std::vector<int> order;
  Recorder sink(&s, &order);
  EventHandle now = s.ScheduleAt(0, &never, 1, 1, kCancellable);
  EventHandle later = s.ScheduleAt(50, &never, 2, 2, kCancellable);
  s.ScheduleAt(0, &sink, 1, 0);
  now.Cancel();
  s.ScheduleAt(10, [&] { later.Cancel(); });
  // Its freed slot is taken by the next event, which fires as scheduled.
  s.ScheduleAt(50, &sink, 2, 0);
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.executed_events(), 3u);
  EXPECT_EQ(s.pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, TypedEventTest,
                         ::testing::ValuesIn(AllQueueBackends()), BackendName);

INSTANTIATE_TEST_SUITE_P(Backends, TimerTest,
                         ::testing::ValuesIn(AllQueueBackends()), BackendName);

}  // namespace
}  // namespace draconis::sim
