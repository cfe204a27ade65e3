// Ladder/calendar queue backend for the EventQueue API (event_queue.h).
//
// A discrete-event simulator at data-center scale pushes most events a short
// horizon ahead (network hops, executor pulls) plus a sparse far tail
// (client timeouts, watchdogs). A comparison heap pays O(log n) per event
// for that mix; a ladder queue pays amortized O(1) by *bucketing* events by
// time and only sorting them just before they fire, in small batches:
//
//   bottom   the near-horizon run: a vector sorted latest-first by
//            (at, seq), so the earliest key is at the back and a pop is a
//            pop_back. Pops come only from here. Covers [now, bottom_end_).
//   rungs    a stack of bucket arrays. Each rung spans a contiguous time
//            range split into power-of-two-width buckets; pushes append to
//            a bucket unsorted. rungs_[0] is the coarsest; the last rung is
//            the finest and is drained next. Coverage is contiguous:
//            the finest rung starts at bottom_end_, each coarser rung starts
//            where the finer one ends.
//   top      the far-future overflow: one unsorted vector for everything
//            beyond the last rung's horizon; its min..max span is measured
//            when it is spread.
//
// Epoch advance is lazy. When the bottom drains, the finest rung's next
// non-empty bucket is taken: a sparse bucket (<= kSortThreshold keys, or
// 1 ns wide) is batch-sorted into the bottom — consecutive sparse buckets
// are gathered into one batch so lightly-loaded queues amortize the refill
// fixed cost; a dense one is re-spread into a new, finer rung and the walk
// recurses. When every rung is exhausted, `top` is spread into a fresh
// rung[0] sized to kCoverageFactor x its own min..max span — so bucket
// widths adapt to the actual event density, and each key is touched
// O(log_B(span)) ~ 2-3 times in total.
//
// Timer-wheel fast path: dense spans up to kWheelSpan spread straight into
// 1 ns-per-slot buckets. Every append source — direct pushes, bucket
// re-spreads, top spreads — delivers keys in ascending seq, so a 1 ns slot
// is sorted by construction and its drain path never calls sort. This is
// the common case for the sub-microsecond re-arm horizons (network hops,
// executor pulls) that dominate simulation runs.
//
// Ordering is bit-identical to the heap backend: buckets partition time, the
// batch sort and the bottom insertion both use the (at, seq) contract, so
// the pop sequence is the global (at, seq) order no matter how keys were
// bucketed. Inserts that land below bottom_end_ (schedules for the
// already-sorted window) scan the bottom from the back and shift up only
// the keys that fire before them. Most of those pushes are short hops that
// fire soon, so few keys move: on the DAG workload two thirds of all
// pushes land in the bottom, and each moves 3.4 keys on average, where an
// ascending bottom would move the 9.1 that fire after it. A refill sorts
// its batch descending, or reverses a run of 1 ns buckets, which arrives
// ascending.
//
// Liveness filter: a Simulator attaches its per-slot generation words
// (simulator.h), and every re-spread — of the top or of a dense bucket —
// then drops the keys the run loop would discard on pop: those whose word
// is no longer `seq + 1` (cancelled events, superseded timer arms). The
// executor watchdog is the bulk of them: armed 1 ms ahead, superseded
// microseconds later. Dropping a dead key cannot change the pop order of
// the live ones. Without attached words the queue keeps every key, which
// is the raw EventQueue contract.
//
// `final` so the Simulator's calls through a concrete member devirtualize.

#ifndef DRACONIS_SIM_LADDER_QUEUE_H_
#define DRACONIS_SIM_LADDER_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"

namespace draconis::sim {

class LadderQueue final : public EventQueue {
 public:
  bool empty() const override { return live_ == 0; }
  size_t size() const override { return live_; }

  // Hot path, header-inline so the Simulator's monomorphized run loop can
  // flatten it. The cold epoch-advance machinery (EnsureBottom and friends)
  // stays out of line. The Simulator calls the scalar form: a key it built
  // as an EventKey would be stored field by field and reloaded whole, a
  // reload the store buffer cannot forward.
  void Push(EventKey key) override { Push(key.at, key.seq, key.slot); }

  void Push(TimeNs at, uint64_t seq, uint32_t slot) {
    ++live_;
    if (at < bottom_end_) {
      // Lands in the already-sorted window. The bottom is stored
      // latest-first, so scan from the back (the earliest key) and shift up
      // only the keys that fire before this one. The key is written
      // straight into its place, never staged in memory as a whole.
      bottom_.emplace_back();
      EventKey* const keys = bottom_.data();
      size_t i = bottom_.size() - 1;
      while (i > 0 && FiresBefore(keys[i - 1], at, seq)) {
        keys[i] = keys[i - 1];
        --i;
      }
      keys[i].at = at;
      keys[i].seq = seq;
      keys[i].slot = slot;
      return;
    }
    // Finest rung first: high-frequency re-arms (executor pulls, network
    // hops) almost always land there, so this loop is one iteration in
    // practice.
    for (size_t r = depth_; r-- > 0;) {
      Rung& rung = rungs_[r];
      if (at < rung.end) {
        rung.buckets[static_cast<size_t>(at - rung.start) >> rung.width_log2].emplace_back(
            at, seq, slot);
        ++rung.count;
        return;
      }
    }
    top_.emplace_back(at, seq, slot);  // far future
  }

  bool PeekTop(EventKey* out) override {
    if (bottom_.empty() && !EnsureBottom()) {
      return false;
    }
    *out = bottom_.back();
    return true;
  }

  EventKey PopTop() override {
    // Usually a no-op compare: the run loop peeks first, which already
    // refilled the bottom. Bare pops on a non-empty queue must work too.
    if (bottom_.empty()) {
      EnsureBottom();
    }
    --live_;
    const EventKey top = bottom_.back();
    bottom_.pop_back();
    return top;
  }

  void Clear() override;

  // Lets spreads drop dead keys: a key is live iff
  // (*gens)[key.slot] == key.seq + 1. `gens` must outlive the queue.
  void AttachLiveness(const std::vector<uint64_t>* gens) { gens_ = gens; }

 private:
  // 2^6 buckets per rung: one cache-friendly bucket array per spread, and a
  // span shrink factor of 64x per ladder level.
  static constexpr int kRungBucketsLog2 = 6;
  static constexpr size_t kRungBuckets = size_t{1} << kRungBucketsLog2;
  // Buckets at most this large are batch-sorted into the bottom; larger ones
  // re-spread one level finer. It also caps how many keys a refill gathers,
  // and so how far ahead the sorted bottom reaches: short re-arms (switch
  // egress, host rx) that land inside it pay a sorted insert. At 64, 44% of
  // fig-5a pushes did, moving 28 keys each; at 16 a refill is more frequent
  // but cheap, and most of those pushes append to a rung bucket instead.
  static constexpr size_t kSortThreshold = 16;
  // SpreadTop covers this multiple of the observed top span: steady-state
  // workloads keep scheduling into the same horizon while the rung drains,
  // and the headroom lets those pushes land in rung buckets directly
  // instead of re-transiting the top every epoch.
  static constexpr TimeNs kCoverageFactor = 4;
  // Spans up to this go straight to a 1 ns-per-bucket timer wheel instead
  // of a coarse rung. A 1 ns bucket only ever receives keys in ascending
  // seq (pushes, bucket spreads, and top spreads all append in global
  // scheduling order), so wheel buckets are sorted by construction and the
  // drain path never sorts at all — the fast path for the sub-microsecond
  // re-arm horizons (network hops, executor pulls) that dominate runs.
  static constexpr int kWheelSpanLog2 = 12;
  static constexpr TimeNs kWheelSpan = TimeNs{1} << kWheelSpanLog2;

  struct Rung {
    TimeNs start = 0;   // time of bucket 0
    TimeNs end = 0;     // exclusive horizon of the whole rung
    int width_log2 = 0; // bucket width is (1 << width_log2) ns
    size_t cur = 0;     // next bucket to drain
    size_t count = 0;   // keys in buckets at index >= cur
    std::vector<std::vector<EventKey>> buckets;
  };

  // Refills the drained bottom from the rungs/top. Returns false when the
  // queue is empty. Maintains the invariant that bottom_end_ equals the
  // start of the first undrained bucket (or rung/top region) on return.
  bool EnsureBottom();
  // Spreads spread_scratch_ into a new finest rung covering
  // [start, start + 2^parent_width_log2).
  void SpawnRung(TimeNs start, int parent_width_log2);
  // Spreads the whole top into a fresh rung[0] sized to its min..max span.
  // Leaves the queue empty if every top key was dead.
  void SpreadTop();
  // With liveness words attached, removes dead keys from `keys` (keeping
  // the order of the rest).
  void DropDead(std::vector<EventKey>& keys);
  // The (at, seq) contract of EventKeyBefore, against a key in scalars.
  static bool FiresBefore(const EventKey& key, TimeNs at, uint64_t seq) {
    return key.at != at ? key.at < at : key.seq < seq;
  }

  size_t live_ = 0;
  const std::vector<uint64_t>* gens_ = nullptr;  // liveness words, if attached

  // Bottom: sorted descending by (at, seq), so the earliest key is at the
  // back and pops are pop_back.
  std::vector<EventKey> bottom_;
  TimeNs bottom_end_ = 0;  // exclusive; pushes below this sort into bottom_

  std::vector<Rung> rungs_;  // pool; [0, depth_) are active, [0] coarsest
  size_t depth_ = 0;

  std::vector<EventKey> top_;  // far future, unsorted

  std::vector<EventKey> spread_scratch_;  // reused bucket-spread staging
};

}  // namespace draconis::sim

#endif  // DRACONIS_SIM_LADDER_QUEUE_H_
