// Oracle differential tests for the idle-poll roster's due queue
// (core/due_queue.h).
//
// A sorted std::vector of (at, key, slot) is driven through the same seeded
// interleavings of inserts, minimum queries, "pop everything before
// (now, key)" sweeps, whole-queue drains and clears as the timing wheel.
// A sweep either pops entry by entry or takes the lot with TakeBefore, the
// roster's unsorted sweep, which must take exactly the same set.
// Times collide on the nanosecond and keys tie on their leading members, so
// the order rests on the full (at, key) comparison; offsets reach past the
// wheel's window, `now` jumps by more than the window, and inserts land
// below the front. Every popped slot and every minimum must match exactly.
// The queue reads each slot's (at, key) from its owner, as the roster's
// queue reads them from its trains; here the owner is a plain table.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/due_queue.h"

namespace draconis::core {
namespace {

// The owner's records: each slot's (at, key), written only while the slot
// is not queued.
struct SlotTable {
  std::vector<TimeNs> at;
  std::vector<p4::IngressKey> key;
};

// What the queue reads of them.
struct TableSlots {
  const SlotTable* table;
  TimeNs At(uint32_t slot) const { return table->at.at(slot); }
  p4::IngressKey Key(uint32_t slot) const { return table->key.at(slot); }
  void Prefetch(uint32_t slot) const { EXPECT_LT(slot, table->at.size()); }
};

// A DueQueue with its table: Insert(slot, at, key) records the slot's
// (at, key), then queues it.
class KeyedQueue {
 public:
  void Insert(uint32_t slot, TimeNs at, const p4::IngressKey& key) {
    if (slot >= table_.at.size()) {
      table_.at.resize(slot + 1);
      table_.key.resize(slot + 1);
    }
    table_.at[slot] = at;
    table_.key[slot] = key;
    queue_.Insert(slot);
  }
  uint32_t Front() { return queue_.Front(); }
  uint32_t PopFront() { return queue_.PopFront(); }
  // Takes every entry before (now, bound).
  void TakeBefore(TimeNs now, const p4::IngressKey& bound, std::vector<uint32_t>& out) {
    queue_.TakeBefore(
        now, [this, &bound](uint32_t slot) { return table_.key.at(slot) < bound; }, out);
  }
  void Clear() { queue_.Clear(); }
  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }
  TimeNs at(uint32_t slot) const { return table_.at.at(slot); }

 private:
  SlotTable table_;
  DueQueue<TableSlots> queue_{TableSlots{&table_}};
};

constexpr TimeNs kWindow = DueQueue<TableSlots>::kBucketWidth * DueQueue<TableSlots>::kBuckets;

struct RefEntry {
  TimeNs at = 0;
  p4::IngressKey key;
  uint32_t slot = 0;

  bool operator<(const RefEntry& o) const {
    return std::tie(at, key.sent_at, key.port, key.seq) <
           std::tie(o.at, o.key.sent_at, o.key.port, o.key.seq);
  }
  bool SameOrder(const RefEntry& o) const { return !(*this < o) && !(o < *this); }
};

// The oracle: every entry in one vector, kept sorted.
class ReferenceDue {
 public:
  void Insert(const RefEntry& e) {
    entries_.insert(std::upper_bound(entries_.begin(), entries_.end(), e), e);
  }
  bool Contains(const RefEntry& e) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&e](const RefEntry& x) { return x.SameOrder(e); });
  }
  const RefEntry& Front() const { return entries_.front(); }
  RefEntry PopFront() {
    const RefEntry e = entries_.front();
    entries_.erase(entries_.begin());
    return e;
  }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  void Clear() { entries_.clear(); }

 private:
  std::vector<RefEntry> entries_;
};

// How a Driver sweeps the entries before (now, key).
enum class Sweep { kPopEach, kTakeBefore };

class Driver {
 public:
  Driver(uint64_t seed, Sweep sweep) : rng_(seed), sweep_(sweep) {}

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const uint64_t op = rng_.NextBelow(100);
      if (op < 45) {
        Insert();
      } else if (op < 60) {
        CheckFront();
      } else if (op < 75) {
        PopBefore();
      } else if (op < 85) {
        now_ += static_cast<TimeNs>(rng_.NextBelow(4000));
      } else if (op < 88) {
        now_ += kWindow + static_cast<TimeNs>(rng_.NextBelow(3 * kWindow));  // a jump
      } else if (op < 92) {
        PopOne();
      } else if (op < 95) {
        DrainAll();
      } else if (op < 97) {
        queue_.Clear();
        ref_.Clear();
        free_.clear();
        next_slot_ = 0;
      } else {
        // Put back what a drain took, as the roster re-parks trains.
        for (int i = 0; i < 20; ++i) {
          Insert();
        }
      }
      ASSERT_EQ(queue_.size(), ref_.size()) << "step " << step;
      ASSERT_EQ(queue_.empty(), ref_.empty()) << "step " << step;
      if (HasFailure()) {
        return;
      }
    }
    DrainAll();
  }

 private:
  static bool HasFailure() { return ::testing::Test::HasFailure(); }

  uint32_t TakeSlot() {
    if (!free_.empty() && rng_.NextBelow(2) == 0) {
      const size_t i = rng_.NextBelow(free_.size());
      const uint32_t slot = free_[i];
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
      return slot;
    }
    return next_slot_++;
  }

  TimeNs DrawAt() {
    const uint64_t kind = rng_.NextBelow(20);
    TimeNs at;
    if (kind < 10) {
      at = now_ + static_cast<TimeNs>(rng_.NextBelow(4)) * 37;  // colliding instants
    } else if (kind < 15) {
      at = now_ + static_cast<TimeNs>(rng_.NextBelow(20'000));
    } else if (kind < 17) {
      at = now_ + kWindow + static_cast<TimeNs>(rng_.NextBelow(2 * kWindow));  // past it
    } else if (kind < 19) {
      at = now_ - static_cast<TimeNs>(rng_.NextBelow(5'000));  // below the front
    } else {
      at = now_ + kWindow - static_cast<TimeNs>(rng_.NextBelow(200));  // its top edge
    }
    return std::max<TimeNs>(at, 0);
  }

  p4::IngressKey DrawKey(TimeNs at) {
    p4::IngressKey key;
    key.sent_at = at - static_cast<TimeNs>(rng_.NextBelow(3)) * 500;
    key.port = static_cast<net::NodeId>(rng_.NextBelow(3));
    key.seq = rng_.NextBelow(4);
    return key;
  }

  void Insert() {
    RefEntry e;
    do {
      e.at = DrawAt();
      e.key = DrawKey(e.at);
    } while (ref_.Contains(e));  // (at, key) is unique, as a roster's is
    e.slot = TakeSlot();
    queue_.Insert(e.slot, e.at, e.key);
    ref_.Insert(e);
  }

  void CheckFront() {
    if (ref_.empty()) {
      return;
    }
    const uint32_t slot = queue_.Front();
    ASSERT_EQ(slot, ref_.Front().slot);
    ASSERT_EQ(queue_.at(slot), ref_.Front().at);
  }

  void PopOne() {
    if (ref_.empty()) {
      return;
    }
    const RefEntry want = ref_.PopFront();
    ASSERT_EQ(queue_.PopFront(), want.slot);
    free_.push_back(want.slot);
  }

  // Sweeps every entry before (now, key), re-queueing each one later, as the
  // roster's credit phase does.
  void PopBefore() {
    const p4::IngressKey bound = DrawKey(now_);
    const RefEntry limit{now_, bound, 0};
    if (sweep_ == Sweep::kTakeBefore) {
      TakeBefore(bound, limit);
      return;
    }
    while (!ref_.empty() && ref_.Front() < limit) {
      const RefEntry want = ref_.PopFront();
      const uint32_t slot = queue_.Front();
      ASSERT_EQ(slot, want.slot);
      ASSERT_EQ(queue_.PopFront(), want.slot);
      Requeue(want.slot);
    }
    if (!ref_.empty()) {
      ASSERT_FALSE(queue_.at(queue_.Front()) < now_);
    }
  }

  // PopBefore as one TakeBefore, which must take exactly the reference's
  // entries before `limit`; they are re-queued in a shuffled order, as the
  // roster's credits need none.
  void TakeBefore(const p4::IngressKey& bound, const RefEntry& limit) {
    std::vector<uint32_t> want;
    while (!ref_.empty() && ref_.Front() < limit) {
      want.push_back(ref_.PopFront().slot);
    }
    std::vector<uint32_t> got{kSentinel};  // TakeBefore appends
    queue_.TakeBefore(now_, bound, got);
    ASSERT_EQ(got.front(), kSentinel);
    got.erase(got.begin());
    std::sort(got.begin(), got.end());
    std::vector<uint32_t> sorted_want = want;
    std::sort(sorted_want.begin(), sorted_want.end());
    ASSERT_EQ(got, sorted_want);
    for (size_t i = want.size(); i > 1; --i) {
      std::swap(want[i - 1], want[rng_.NextBelow(i)]);
    }
    for (const uint32_t slot : want) {
      Requeue(slot);
    }
    if (!ref_.empty()) {
      ASSERT_FALSE(queue_.at(queue_.Front()) < now_);
    }
  }

  // Re-inserts a swept slot later than now, or frees it.
  void Requeue(uint32_t slot) {
    if (rng_.NextBelow(4) != 0) {
      RefEntry again{now_ + 1 + static_cast<TimeNs>(rng_.NextBelow(30'000)), {}, slot};
      do {
        again.key = DrawKey(again.at);
      } while (ref_.Contains(again));
      queue_.Insert(again.slot, again.at, again.key);
      ref_.Insert(again);
    } else {
      free_.push_back(slot);
    }
  }

  // Pops everything: the roster's wake-all order.
  void DrainAll() {
    while (!ref_.empty()) {
      const RefEntry want = ref_.PopFront();
      ASSERT_EQ(queue_.PopFront(), want.slot);
      free_.push_back(want.slot);
    }
    ASSERT_TRUE(queue_.empty());
  }

  static constexpr uint32_t kSentinel = UINT32_MAX;

  Rng rng_;
  Sweep sweep_;
  KeyedQueue queue_;
  ReferenceDue ref_;
  std::vector<uint32_t> free_;
  uint32_t next_slot_ = 0;
  TimeNs now_ = 1'000'000;
};

TEST(DueQueuePropertyTest, MatchesSortedReferenceAcross32Seeds) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Driver(seed, Sweep::kPopEach).Run(6000);
    if (HasFailure()) {
      return;
    }
  }
}

// The same interleavings with every sweep a TakeBefore: whole buckets
// unlinked unsorted, the bucket of `now` and the overflow list filtered,
// then pops and inserts against what the take left.
TEST(DueQueuePropertyTest, TakeBeforeMatchesSortedReferenceAcross32Seeds) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Driver(seed, Sweep::kTakeBefore).Run(6000);
    if (HasFailure()) {
      return;
    }
  }
}

// A take splits the entries of `now` by key, leaves later ones in order,
// reaches overflow entries once `now` passes them, and the queue serves
// pops and inserts afterwards.
TEST(DueQueuePropertyTest, TakeBeforeSplitsTheInstantAndReachesTheOverflow) {
  KeyedQueue queue;
  const TimeNs now = 5'000;
  queue.Insert(0, now - 100, p4::IngressKey{4'000, 9, 9});  // an earlier bucket
  queue.Insert(1, now, p4::IngressKey{4'000, 2, 3});        // below the bound
  queue.Insert(2, now, p4::IngressKey{4'000, 2, 9});        // above it
  queue.Insert(3, now + 1, p4::IngressKey{0, 0, 0});        // later, same bucket
  queue.Insert(4, now + 3 * kWindow, p4::IngressKey{});     // overflow
  std::vector<uint32_t> out;
  queue.TakeBefore(now, p4::IngressKey{4'000, 2, 5}, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(queue.size(), 3u);
  queue.Insert(5, now, p4::IngressKey{4'000, 2, 7});  // between 1 and 2
  EXPECT_EQ(queue.PopFront(), 5u);
  EXPECT_EQ(queue.PopFront(), 2u);

  out.clear();
  queue.TakeBefore(now + 3 * kWindow + 1, p4::IngressKey{}, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{3, 4}));
  EXPECT_TRUE(queue.empty());
  queue.Insert(6, now + 4 * kWindow, p4::IngressKey{});
  queue.Insert(7, now + 3 * kWindow + 2, p4::IngressKey{});
  EXPECT_EQ(queue.PopFront(), 7u);
  EXPECT_EQ(queue.PopFront(), 6u);
  EXPECT_TRUE(queue.empty());
}

// Arrivals in one nanosecond leave in key order, whatever order they came
// in, and a later instant never overtakes them.
TEST(DueQueuePropertyTest, SameInstantArrivalsLeaveInKeyOrder) {
  KeyedQueue queue;
  const TimeNs at = 5'000;
  const p4::IngressKey keys[] = {{4'000, 2, 9}, {3'000, 7, 1}, {4'000, 2, 3}, {4'000, 1, 5}};
  uint32_t slot = 0;
  for (const p4::IngressKey& key : keys) {
    queue.Insert(slot++, at, key);
  }
  queue.Insert(slot++, at + 1, p4::IngressKey{0, 0, 0});
  const uint32_t want[] = {1, 3, 2, 0, 4};
  for (const uint32_t s : want) {
    EXPECT_EQ(queue.PopFront(), s);
  }
  EXPECT_TRUE(queue.empty());
}

// Entries far past the window, and a queue whose only entries sit on the
// overflow list, come back in order.
TEST(DueQueuePropertyTest, EntriesPastTheWindowComeBackInOrder) {
  KeyedQueue queue;
  const TimeNs far = 7 * kWindow;
  queue.Insert(0, far + 3, p4::IngressKey{1, 1, 1});
  queue.Insert(1, far + 3, p4::IngressKey{1, 0, 1});
  queue.Insert(2, 2 * kWindow, p4::IngressKey{});
  queue.Insert(3, 10, p4::IngressKey{});
  EXPECT_EQ(queue.PopFront(), 3u);
  EXPECT_EQ(queue.PopFront(), 2u);
  queue.Insert(4, kWindow, p4::IngressKey{});  // below the new front
  EXPECT_EQ(queue.PopFront(), 4u);
  EXPECT_EQ(queue.PopFront(), 1u);
  EXPECT_EQ(queue.PopFront(), 0u);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace draconis::core
