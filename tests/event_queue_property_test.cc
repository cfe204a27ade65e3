// Oracle differential tests for the event engine.
//
// A naive reference queue — a sorted std::vector of (at, seq, id) with
// eager cancellation — is driven through the same randomized interleavings
// of schedule / cancel / timer-arm / run-until as the real slab+queue
// engine, on each queue backend. At every step the firing order, the clock,
// and the live-event count must match exactly; after each drain every
// outstanding handle's pending() must agree with the model. 32 seeds x
// ~10k operations per backend. A second differential drives the raw
// EventQueue backends against each other below the Simulator entirely.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "sim/event_heap.h"
#include "sim/ladder_queue.h"
#include "sim/simulator.h"

namespace draconis::sim {
namespace {

struct RefEvent {
  TimeNs at = 0;
  uint64_t seq = 0;
  int id = 0;
};

// The oracle: keeps live events in a flat vector, fires them in exact
// (at, seq) order, removes cancellations eagerly. Mirrors the engine's seq
// allocation: every schedule or timer re-arm consumes one seq.
class ReferenceQueue {
 public:
  uint64_t Schedule(TimeNs at, int id) {
    const uint64_t seq = next_seq_++;
    events_.push_back(RefEvent{at, seq, id});
    return seq;
  }

  // Returns true if the seq was still pending (and removes it).
  bool Cancel(uint64_t seq) {
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->seq == seq) {
        events_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool IsPending(uint64_t seq) const {
    return std::any_of(events_.begin(), events_.end(),
                       [seq](const RefEvent& e) { return e.seq == seq; });
  }

  // Fires everything with at <= until, in (at, seq) order; advances now().
  std::vector<int> RunUntil(TimeNs until) {
    std::vector<int> fired;
    for (;;) {
      auto next = std::min_element(events_.begin(), events_.end(),
                                   [](const RefEvent& a, const RefEvent& b) {
                                     return a.at != b.at ? a.at < b.at : a.seq < b.seq;
                                   });
      if (next == events_.end() || next->at > until) {
        break;
      }
      now_ = next->at;
      fired.push_back(next->id);
      events_.erase(next);
    }
    if (now_ < until) {
      now_ = until;
    }
    return fired;
  }

  void Clear() { events_.clear(); }

  TimeNs now() const { return now_; }
  size_t live() const { return events_.size(); }

 private:
  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<RefEvent> events_;
};

// The sink of the typed events and timers below: records its first word as
// the event's id (timer ids are negative).
class IdRecorder final : public EventSink {
 public:
  explicit IdRecorder(std::vector<int>* fired) : fired_(fired) {}
  void OnEvent(uint32_t id, uint32_t /*unused*/) override {
    fired_->push_back(static_cast<int>(id));
  }

 private:
  std::vector<int>* fired_;
};

struct LiveHandle {
  EventHandle handle;
  uint64_t ref_seq = 0;
};

constexpr int kTimerCount = 3;

struct Fixture {
  explicit Fixture(QueueBackend backend) : sim(backend) {}

  Simulator sim;
  ReferenceQueue ref;
  std::vector<int> fired;  // ids recorded by real-engine callbacks
  IdRecorder sink{&fired};
  std::vector<LiveHandle> handles;
  std::vector<std::unique_ptr<Timer>> timers;
  // ref seq of each timer's pending occurrence, if armed.
  std::optional<uint64_t> timer_seq[kTimerCount];
  int next_id = 0;
};

void DriveSeed(QueueBackend backend, uint64_t seed, int steps) {
  Fixture fx(backend);
  // Timer ids are negative so they can't collide with one-shot ids; timer t
  // fires id -(t+1).
  for (int t = 0; t < kTimerCount; ++t) {
    fx.timers.push_back(
        std::make_unique<Timer>(&fx.sim, &fx.sink, static_cast<uint32_t>(-(t + 1)), 0));
  }

  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 40) {
      // Plain one-shot event.
      const TimeNs at = fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(1000));
      const int id = fx.next_id++;
      fx.sim.ScheduleAt(at, [&fx, id] { fx.fired.push_back(id); });
      fx.ref.Schedule(at, id);
    } else if (op < 60) {
      // Cancellable one-shot event; keep the handle.
      const TimeNs at = fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(1000));
      const int id = fx.next_id++;
      EventHandle h = fx.sim.ScheduleAt(at, &fx.sink, static_cast<uint32_t>(id), 0, kCancellable);
      fx.handles.push_back(LiveHandle{h, fx.ref.Schedule(at, id)});
    } else if (op < 70) {
      // Cancel a random tracked handle (may already have fired).
      if (!fx.handles.empty()) {
        LiveHandle& lh = fx.handles[rng.NextBelow(fx.handles.size())];
        const bool was_pending = fx.ref.IsPending(lh.ref_seq);
        ASSERT_EQ(lh.handle.pending(), was_pending) << "seed=" << seed << " step=" << step;
        lh.handle.Cancel();
        fx.ref.Cancel(lh.ref_seq);
        ASSERT_FALSE(lh.handle.pending());
      }
    } else if (op < 78) {
      // Arm (or re-arm) a timer: replaces its pending occurrence and
      // consumes one seq, exactly like the engine.
      const int t = static_cast<int>(rng.NextBelow(kTimerCount));
      const TimeNs at = fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(1000));
      fx.timers[t]->ScheduleAt(at);
      if (fx.timer_seq[t].has_value()) {
        fx.ref.Cancel(*fx.timer_seq[t]);
      }
      fx.timer_seq[t] = fx.ref.Schedule(at, -(t + 1));
    } else if (op < 82) {
      // Cancel a timer.
      const int t = static_cast<int>(rng.NextBelow(kTimerCount));
      fx.timers[t]->Cancel();
      if (fx.timer_seq[t].has_value()) {
        fx.ref.Cancel(*fx.timer_seq[t]);
        fx.timer_seq[t].reset();
      }
      ASSERT_FALSE(fx.timers[t]->pending());
    } else if (op < 97) {
      // Run a bounded slice and compare the firing order id-for-id.
      const TimeNs until = fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(400));
      fx.fired.clear();
      const uint64_t ran = fx.sim.RunUntil(until);
      const std::vector<int> expected = fx.ref.RunUntil(until);
      ASSERT_EQ(fx.fired, expected) << "seed=" << seed << " step=" << step;
      ASSERT_EQ(ran, expected.size());
      // Fired timers are no longer pending in the model either.
      for (int t = 0; t < kTimerCount; ++t) {
        if (fx.timer_seq[t].has_value() && !fx.ref.IsPending(*fx.timer_seq[t])) {
          fx.timer_seq[t].reset();
        }
        ASSERT_EQ(fx.timers[t]->pending(), fx.timer_seq[t].has_value());
      }
    } else {
      // Tear down the run: everything pending is dropped.
      fx.sim.Clear();
      fx.ref.Clear();
      for (int t = 0; t < kTimerCount; ++t) {
        fx.timer_seq[t].reset();
      }
    }

    // Invariants after every operation.
    ASSERT_EQ(fx.sim.Now(), fx.ref.now()) << "seed=" << seed << " step=" << step;
    ASSERT_EQ(fx.sim.pending_events(), fx.ref.live()) << "seed=" << seed << " step=" << step;

    // Cap the tracked-handle set so cancels keep hitting live events.
    if (fx.handles.size() > 512) {
      fx.handles.erase(fx.handles.begin(), fx.handles.begin() + 256);
    }
  }

  // Final drain must agree event-for-event too.
  fx.fired.clear();
  fx.sim.RunAll();
  const std::vector<int> expected = fx.ref.RunUntil(fx.sim.Now());
  ASSERT_EQ(fx.fired, expected) << "seed=" << seed;
  ASSERT_EQ(fx.sim.pending_events(), 0u);
  for (const LiveHandle& lh : fx.handles) {
    ASSERT_FALSE(lh.handle.pending());
  }
}

class EventQueuePropertyTest : public ::testing::TestWithParam<QueueBackend> {};

TEST_P(EventQueuePropertyTest, MatchesNaiveReferenceAcross32Seeds) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    DriveSeed(GetParam(), seed, 10000);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// A deliberately adversarial clustering: many events at the same instant,
// interleaved with cancellations, so the (at, seq) tie-break is exercised
// hard.
TEST_P(EventQueuePropertyTest, SameInstantClustersKeepSchedulingOrder) {
  for (uint64_t seed = 100; seed < 108; ++seed) {
    Simulator sim(GetParam());
    ReferenceQueue ref;
    std::vector<int> fired;
    IdRecorder sink(&fired);
    std::vector<LiveHandle> handles;
    Rng rng(seed);
    int next_id = 0;
    for (int round = 0; round < 200; ++round) {
      const TimeNs t = sim.Now() + static_cast<TimeNs>(rng.NextBelow(3));
      for (int burst = 0; burst < 20; ++burst) {
        const int id = next_id++;
        if (rng.NextBool(0.5)) {
          EventHandle h = sim.ScheduleAt(t, &sink, static_cast<uint32_t>(id), 0, kCancellable);
          handles.push_back(LiveHandle{h, ref.Schedule(t, id)});
        } else {
          sim.ScheduleAt(t, [&fired, id] { fired.push_back(id); });
          ref.Schedule(t, id);
        }
      }
      // Cancel half of the tracked handles.
      for (size_t i = 0; i + 1 < handles.size(); i += 2) {
        handles[i].handle.Cancel();
        ref.Cancel(handles[i].ref_seq);
      }
      handles.clear();
      fired.clear();
      const TimeNs until = sim.Now() + static_cast<TimeNs>(rng.NextBelow(4));
      sim.RunUntil(until);
      ASSERT_EQ(fired, ref.RunUntil(until)) << "seed=" << seed << " round=" << round;
      ASSERT_EQ(sim.pending_events(), ref.live());
    }
    sim.RunAll();
    // (drain; counts already compared each round)
  }
}

// The executor pull pattern (cluster/executor.h): a pull arms the watchdog
// 1 ms ahead, and the no-op that comes back microseconds later re-arms the
// same timer near, so almost every far key is dead before the queue ever
// spreads it. Far cancellable one-shots (client timeouts) are cancelled at
// random too. The ladder drops those keys at re-spread; the firing order
// and the live count must still match the oracle exactly.
TEST_P(EventQueuePropertyTest, SupersededFarArmsMatchReference) {
  constexpr int kExecutors = 48;
  constexpr TimeNs kWatchdog = 1'000'000;
  for (uint64_t seed = 200; seed < 206; ++seed) {
    Simulator sim(GetParam());
    ReferenceQueue ref;
    std::vector<int> fired;
    IdRecorder sink(&fired);
    std::vector<std::unique_ptr<Timer>> timers;
    std::vector<std::optional<uint64_t>> timer_seq(kExecutors);
    std::vector<LiveHandle> handles;
    for (int e = 0; e < kExecutors; ++e) {
      timers.push_back(
          std::make_unique<Timer>(&sim, &sink, static_cast<uint32_t>(-(e + 1)), 0));
    }
    auto arm = [&](int e, TimeNs at) {
      timers[e]->ScheduleAt(at);
      if (timer_seq[e].has_value()) {
        ref.Cancel(*timer_seq[e]);
      }
      timer_seq[e] = ref.Schedule(at, -(e + 1));
    };
    Rng rng(seed);
    int next_id = 0;
    for (int round = 0; round < 600; ++round) {
      for (int e = 0; e < kExecutors; ++e) {
        const uint64_t op = rng.NextBelow(10);
        if (op < 4) {
          arm(e, sim.Now() + kWatchdog + static_cast<TimeNs>(rng.NextBelow(64)));
        } else if (op < 8) {
          arm(e, sim.Now() + 2000 + static_cast<TimeNs>(rng.NextBelow(6000)));
        } else if (op < 9) {
          const TimeNs at =
              sim.Now() + kWatchdog / 2 + static_cast<TimeNs>(rng.NextBelow(kWatchdog));
          const int id = next_id++;
          EventHandle h = sim.ScheduleAt(at, &sink, static_cast<uint32_t>(id), 0, kCancellable);
          handles.push_back(LiveHandle{h, ref.Schedule(at, id)});
        } else if (!handles.empty()) {
          LiveHandle& lh = handles[rng.NextBelow(handles.size())];
          lh.handle.Cancel();
          ref.Cancel(lh.ref_seq);
        }
      }
      fired.clear();
      const TimeNs until = sim.Now() + 1 + static_cast<TimeNs>(rng.NextBelow(4000));
      const uint64_t ran = sim.RunUntil(until);
      const std::vector<int> expected = ref.RunUntil(until);
      ASSERT_EQ(fired, expected) << "seed=" << seed << " round=" << round;
      ASSERT_EQ(ran, expected.size());
      ASSERT_EQ(sim.pending_events(), ref.live()) << "seed=" << seed << " round=" << round;
      for (int e = 0; e < kExecutors; ++e) {
        if (timer_seq[e].has_value() && !ref.IsPending(*timer_seq[e])) {
          timer_seq[e].reset();
        }
      }
      if (handles.size() > 256) {
        handles.erase(handles.begin(), handles.begin() + 128);
      }
    }
    fired.clear();
    sim.RunAll();
    ASSERT_EQ(fired, ref.RunUntil(sim.Now())) << "seed=" << seed;
    ASSERT_EQ(sim.pending_events(), 0u);
  }
}

std::string BackendName(const ::testing::TestParamInfo<QueueBackend>& param) {
  return QueueBackendName(param.param);
}

INSTANTIATE_TEST_SUITE_P(Backends, EventQueuePropertyTest,
                         ::testing::ValuesIn(AllQueueBackends()), BackendName);

// Differential below the Simulator: drive the raw backends through the
// EventQueue interface with randomized push/pop interleavings (including
// duplicate instants, far-future spikes, and pushes into the already-sorted
// near window) and require the pop streams to be identical key-for-key.
TEST(EventQueueDifferentialTest, HeapAndLadderPopIdenticalStreams) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    EventHeap heap;
    LadderQueue ladder;
    EventQueue* const queues[] = {&heap, &ladder};
    Rng rng(seed);
    uint64_t next_seq = 0;
    TimeNs low_watermark = 0;  // keys are never pushed below the last pop
    for (int step = 0; step < 20000; ++step) {
      const uint64_t op = rng.NextBelow(100);
      if (op < 55 || heap.empty()) {
        TimeNs at = low_watermark;
        const uint64_t shape = rng.NextBelow(10);
        if (shape < 6) {
          at += static_cast<TimeNs>(rng.NextBelow(256));  // near horizon
        } else if (shape < 9) {
          at += static_cast<TimeNs>(rng.NextBelow(1'000'000));  // ~ms ahead
        }  // else: exactly at the watermark (same-instant cluster)
        const EventKey key{at, next_seq++, static_cast<uint32_t>(step)};
        for (EventQueue* q : queues) {
          q->Push(key);
        }
      } else {
        EventKey heap_peek{};
        EventKey ladder_peek{};
        ASSERT_TRUE(heap.PeekTop(&heap_peek));
        ASSERT_TRUE(ladder.PeekTop(&ladder_peek));
        const EventKey a = heap.PopTop();
        const EventKey b = ladder.PopTop();
        ASSERT_EQ(a.at, b.at) << "seed=" << seed << " step=" << step;
        ASSERT_EQ(a.seq, b.seq) << "seed=" << seed << " step=" << step;
        ASSERT_EQ(a.slot, b.slot) << "seed=" << seed << " step=" << step;
        ASSERT_EQ(heap_peek.seq, a.seq);
        ASSERT_EQ(ladder_peek.seq, b.seq);
        low_watermark = a.at;
      }
      ASSERT_EQ(heap.size(), ladder.size());
      ASSERT_EQ(heap.empty(), ladder.empty());
    }
    // Drain both; the tails must agree too.
    EventKey peek{};
    while (heap.PeekTop(&peek)) {
      ASSERT_TRUE(ladder.PeekTop(&peek));
      const EventKey a = heap.PopTop();
      const EventKey b = ladder.PopTop();
      ASSERT_EQ(a.at, b.at) << "seed=" << seed;
      ASSERT_EQ(a.seq, b.seq) << "seed=" << seed;
    }
    ASSERT_TRUE(ladder.empty());
  }
}

// With liveness words attached, the ladder drops exactly the dead keys when
// it spreads them, and pops the live ones in (at, seq) order.
TEST(EventQueueDifferentialTest, LadderLivenessFilterDropsOnlyDeadKeys) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<uint64_t> gens;
    std::vector<EventKey> live;
    LadderQueue ladder;
    ladder.AttachLiveness(&gens);
    for (uint32_t i = 0; i < 4000; ++i) {
      const EventKey key{static_cast<TimeNs>(rng.NextBelow(i % 3 == 0 ? 1'000'000 : 5000)), i, i};
      const bool dead = rng.NextBool(0.4);
      gens.push_back(dead ? 0 : key.seq + 1);
      ladder.Push(key);
      if (!dead) {
        live.push_back(key);
      }
    }
    std::sort(live.begin(), live.end(), EventKeyBefore);
    // Every key is still in the top, so the first peek spreads them all.
    EventKey top{};
    ASSERT_TRUE(ladder.PeekTop(&top));
    ASSERT_EQ(ladder.size(), live.size()) << "seed=" << seed;
    std::vector<uint64_t> popped;
    while (ladder.PeekTop(&top)) {
      const EventKey key = ladder.PopTop();
      ASSERT_EQ(gens[key.slot], key.seq + 1) << "dead key popped, seed=" << seed;
      popped.push_back(key.seq);
    }
    ASSERT_TRUE(ladder.empty());
    ASSERT_EQ(popped.size(), live.size()) << "seed=" << seed;
    for (size_t i = 0; i < live.size(); ++i) {
      ASSERT_EQ(popped[i], live[i].seq) << "seed=" << seed << " i=" << i;
    }
  }
}

// The near-future shape of the packet-hop path: most pushes land inside
// the ladder's sorted bottom window (hop-like delays shorter than a refill,
// many of them at an instant that already holds keys), interleaved with
// pops, plus a few far keys that keep rungs alive. The oracle is a sorted
// vector of the live keys. Some keys die before they surface, as cancelled
// events do. With liveness words attached the ladder may drop them at a
// re-spread; without, it must pop them. Either way, the live keys must pop
// in exact (at, seq) order, which catches an insert into the bottom that
// breaks a same-instant tie the wrong way.
void DriveNearFuture(uint64_t seed, bool attach_liveness) {
  LadderQueue ladder;
  std::vector<uint64_t> gens;
  if (attach_liveness) {
    ladder.AttachLiveness(&gens);
  }
  std::vector<EventKey> oracle;  // live keys, ascending (at, seq)
  Rng rng(seed);
  uint64_t next_seq = 0;
  TimeNs now = 0;  // the time of the last pop; pushes never go below it
  int in_bottom_ties = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 58 || oracle.empty()) {
      TimeNs at = now;
      const uint64_t shape = rng.NextBelow(100);
      if (shape < 30) {
        at += static_cast<TimeNs>(rng.NextBelow(4)) * 8;  // a few hot instants
      } else if (shape < 85) {
        at += static_cast<TimeNs>(rng.NextBelow(48));  // a hop
      } else if (shape < 97) {
        at += static_cast<TimeNs>(rng.NextBelow(4096));
      } else {
        at += static_cast<TimeNs>(rng.NextBelow(1'000'000));
      }
      const uint32_t slot = static_cast<uint32_t>(gens.size());
      const EventKey key{at, next_seq++, slot};
      gens.push_back(key.seq + 1);
      const auto pos = std::upper_bound(oracle.begin(), oracle.end(), key, EventKeyBefore);
      if (pos != oracle.begin() && std::prev(pos)->at == at) {
        ++in_bottom_ties;
      }
      oracle.insert(pos, key);
      ladder.Push(key);
    } else if (op < 64) {
      // Kill a random pending key, as a cancellation does.
      const size_t victim = rng.NextBelow(oracle.size());
      gens[oracle[victim].slot] = 0;
      oracle.erase(oracle.begin() + static_cast<ptrdiff_t>(victim));
    } else {
      // Pop the next live key; dead ones that surface are skipped, as the
      // run loop skips them.
      EventKey key{};
      for (;;) {
        ASSERT_TRUE(ladder.PeekTop(&key)) << "seed=" << seed << " step=" << step;
        const EventKey popped = ladder.PopTop();
        ASSERT_EQ(popped.seq, key.seq);
        ASSERT_GE(popped.at, now) << "seed=" << seed << " step=" << step;
        if (gens[popped.slot] == popped.seq + 1) {
          key = popped;
          break;
        }
      }
      ASSERT_EQ(key.at, oracle.front().at) << "seed=" << seed << " step=" << step;
      ASSERT_EQ(key.seq, oracle.front().seq) << "seed=" << seed << " step=" << step;
      gens[key.slot] = 0;
      oracle.erase(oracle.begin());
      now = key.at;
    }
    ASSERT_GE(ladder.size(), oracle.size());
  }
  // The drain agrees too, and nothing but dead keys is left over.
  EventKey key{};
  size_t next = 0;
  while (ladder.PeekTop(&key)) {
    const EventKey popped = ladder.PopTop();
    if (gens[popped.slot] != popped.seq + 1) {
      continue;
    }
    ASSERT_LT(next, oracle.size()) << "seed=" << seed;
    ASSERT_EQ(popped.seq, oracle[next].seq) << "seed=" << seed;
    ++next;
  }
  ASSERT_EQ(next, oracle.size()) << "seed=" << seed;
  ASSERT_TRUE(ladder.empty());
  // The shape must really produce same-instant pushes.
  ASSERT_GT(in_bottom_ties, 1000) << "seed=" << seed;
}

TEST(EventQueueDifferentialTest, NearFuturePushesMatchSortedOracle) {
  for (const bool attach : {false, true}) {
    for (uint64_t seed = 1; seed <= 32; ++seed) {
      SCOPED_TRACE(attach ? "liveness attached" : "no liveness words");
      DriveNearFuture(seed, attach);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// Clear() must reset the backends to a reusable state (capacity kept,
// nothing replayed).
TEST(EventQueueDifferentialTest, ClearResetsBothBackends) {
  EventHeap heap;
  LadderQueue ladder;
  for (EventQueue* q : std::initializer_list<EventQueue*>{&heap, &ladder}) {
    for (uint64_t i = 0; i < 1000; ++i) {
      q->Push(EventKey{static_cast<TimeNs>(i * 7 % 113), i, 0});
    }
    q->Clear();
    EXPECT_TRUE(q->empty());
    EXPECT_EQ(q->size(), 0u);
    EventKey out{};
    EXPECT_FALSE(q->PeekTop(&out));
    // Refill after Clear and pop in order.
    q->Push(EventKey{10, 1, 0});
    q->Push(EventKey{5, 2, 0});
    ASSERT_TRUE(q->PeekTop(&out));
    EXPECT_EQ(out.at, 5);
    EXPECT_EQ(q->PopTop().seq, 2u);
    EXPECT_EQ(q->PopTop().seq, 1u);
    EXPECT_TRUE(q->empty());
  }
}

}  // namespace
}  // namespace draconis::sim
