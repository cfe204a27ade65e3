// The pluggable event-queue API of the simulator.
//
// The engine separates *ordering* from *payload*: pending events live in the
// simulator's slot slab, and the queue backend orders trivially copyable
// 24-byte `EventKey` records that point into it. A backend is anything that
// can replay keys in exact (at, seq) order — the tie-break contract every
// determinism golden in tests/ pins:
//
//   key A fires before key B  iff  A.at < B.at, or A.at == B.at && A.seq < B.seq
//
// `seq` is assigned in scheduling order, so same-instant events fire in the
// order they were scheduled. Both backends implement this contract exactly;
// tests/event_queue_property_test.cc proves them against a naive oracle and
// against each other, and tests/determinism_test.cc proves heap and ladder
// runs of a full fig-5a-shaped experiment are bit-identical.
//
// Backends:
//  - `EventHeap` (event_heap.h): binary min-heap. O(log n) push/pop, no
//    tuning knobs, the reference implementation.
//  - `LadderQueue` (ladder_queue.h): ladder/calendar queue. O(1) amortized
//    push, events bucketed by time into rungs and batch-sorted just before
//    they fire. The default — see docs/simulation.md for when it wins.
//
// The interface is virtual so tests and tools can drive any backend through
// one pointer; the `Simulator` holds both backends as concrete `final`
// members and dispatches on an enum, so its hot path is fully devirtualized.

#ifndef DRACONIS_SIM_EVENT_QUEUE_H_
#define DRACONIS_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace draconis::sim {

struct EventKey {
  TimeNs at = 0;      // absolute firing time
  uint64_t seq = 0;   // global scheduling sequence
  uint32_t slot = 0;  // slab slot holding the payload
};

// The (at, seq) firing-order contract. `slot` never participates.
inline bool EventKeyBefore(const EventKey& a, const EventKey& b) {
  if (a.at != b.at) {
    return a.at < b.at;
  }
  return a.seq < b.seq;
}

// Which queue backend a Simulator runs on. Selected at construction; both
// produce bit-identical execution order.
enum class QueueBackend {
  kLadder,  // ladder/calendar queue (default)
  kHeap,    // binary min-heap (reference)
};

inline constexpr QueueBackend kDefaultQueueBackend = QueueBackend::kLadder;

// Flag spelling ("ladder", "heap").
const char* QueueBackendName(QueueBackend backend);

// Parses a backend name into *out. Returns false on an unknown name.
bool QueueBackendFromName(const std::string& name, QueueBackend* out);

// All backends, default first (the order bench --sim-queue choices show in).
std::vector<QueueBackend> AllQueueBackends();

// Orders EventKeys for the simulator. Push and PopTop may interleave freely;
// PeekTop may reorganize internal storage but never changes the pop order.
// Keys are opaque: a backend must not inspect `slot` or drop keys (the
// simulator cancels lazily, by letting a stale key surface and discarding
// it, so every pushed key must eventually pop). The one exception is a
// LadderQueue given the simulator's liveness words (AttachLiveness), which
// may drop exactly the keys the simulator would discard.
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  virtual bool empty() const = 0;
  virtual size_t size() const = 0;

  virtual void Push(EventKey key) = 0;

  // Writes the earliest key into *out without removing it. Returns false on
  // an empty queue.
  virtual bool PeekTop(EventKey* out) = 0;

  // Removes and returns the earliest key. Undefined on an empty queue.
  virtual EventKey PopTop() = 0;

  // Drops every key; keeps capacity so a cleared queue refills without
  // growing.
  virtual void Clear() = 0;
};

}  // namespace draconis::sim

#endif  // DRACONIS_SIM_EVENT_QUEUE_H_
