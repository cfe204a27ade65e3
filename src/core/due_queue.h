// The idle-poll roster's due queue: parked trains ordered by their next
// switch arrival (core/poll_roster.h).
//
// Entries are the owner's slots, served in (at, key) order. The owner keeps
// each slot's `at` and IngressKey in its own records, which a poll cycle
// touches anyway, and the queue reads them through `Slots`:
//
//   TimeNs At(uint32_t slot) const;             // >= 0, fixed while queued
//   p4::IngressKey Key(uint32_t slot) const;     // fixed while queued
//   void Prefetch(uint32_t slot) const;          // the slot is read soon
//
// The queue is a timing wheel: kBuckets buckets of kBucketWidth ns cover a
// window of absolute bucket numbers [cursor, cursor + kBuckets), and an entry
// lives in the bucket of at / kBucketWidth. Entries past the window wait on
// an unsorted overflow list. When the front reaches the least of them, every
// overflow entry the window covers moves into the wheel, so an entry is
// rescanned about once per window the front crosses. A bucket is a singly
// linked list through a compact per-slot link array, kept unsorted until it
// becomes the front bucket, which is then sorted once and kept sorted. An
// occupancy bitmap finds the next non-empty bucket in a few word scans.
//
// Sweeping. An owner that serves every overdue entry anyway, each
// independently of the others, takes them with TakeBefore: the buckets
// before `now`'s are unlinked whole and never sorted, and only `now`'s
// bucket and (once its least entry is due) the overflow list are filtered
// entry by entry. The queue's order is total on (at, key), so the order in
// which the owner re-inserts what it took changes nothing.
//
// Fetching. On a large roster the owner's records of consecutive entries
// are far apart in memory. When a bucket becomes the front, the queue walks
// its links (4 bytes a slot, so they stay cached) and prefetches every
// entry's records before it reads any `at`, and does the same for the next
// occupied bucket. The misses of a bucket then overlap instead of forming a
// chain, and the next bucket's are in flight while this one is served. (On
// the racks-4 benchmark one bucket of lookahead beat none, two and four.)
//
// Memory is O(slots) plus the fixed bucket array: a bucket owns no storage
// of its own, so rotating the window allocates nothing.

#ifndef DRACONIS_CORE_DUE_QUEUE_H_
#define DRACONIS_CORE_DUE_QUEUE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/time.h"
#include "p4/pipeline.h"

namespace draconis::core {

template <typename Slots>
class DueQueue {
 public:
  // 16 ns: a rack of 6 720 idle trains puts about 2 arrivals in a bucket
  // at a 64 us backoff cap and about 10 at 8 us, so sorting the front
  // bucket stays cheap; and a re-queued train, a round trip (over 2 us) or
  // more ahead, never lands in the bucket being served.
  static constexpr TimeNs kBucketWidth = 16;
  // A 131 us window: it covers the longest cycle under a 64 us cap (1.5 x
  // 64 us plus the round trip); longer caps use the overflow list.
  static constexpr uint32_t kBuckets = 8192;

  explicit DueQueue(Slots slots) : slots_(std::move(slots)) {}

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Queues `slot` (not queued already) at Slots::At(slot).
  void Insert(uint32_t slot);
  // The slot with the least (at, key). Requires !empty().
  uint32_t Front();
  // Removes and returns Front().
  uint32_t PopFront();
  // Removes every entry with at < now, and every entry at `now` whose slot
  // satisfies `at_now`, and appends them to `out` in no particular order.
  // `at_now` must hold for a prefix of the entries at `now` in key order.
  // The buckets before now's are unlinked whole and never sorted; only
  // now's bucket and (when it may hold such entries) the overflow list are
  // filtered. A take that finds nothing due changes nothing.
  template <typename AtNow>
  void TakeBefore(TimeNs now, AtNow at_now, std::vector<uint32_t>& out);
  // Drops every entry.
  void Clear();

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr uint64_t kNoBucket = UINT64_MAX;
  static constexpr uint32_t kWords = kBuckets / 64;

  static uint64_t BucketOf(TimeNs at) { return static_cast<uint64_t>(at / kBucketWidth); }
  static uint32_t PositionOf(uint64_t bucket) {
    return static_cast<uint32_t>(bucket % kBuckets);
  }
  bool Before(uint32_t a, uint32_t b) const {
    const TimeNs at_a = slots_.At(a);
    const TimeNs at_b = slots_.At(b);
    return at_a != at_b ? at_a < at_b : slots_.Key(a) < slots_.Key(b);
  }

  // Links `slot` into its bucket (inside the window).
  void LinkIntoBucket(uint32_t slot, uint64_t bucket);
  void LinkIntoOverflow(uint32_t slot);
  // The first occupied bucket in [from, cursor_ + kBuckets), or kNoBucket.
  uint64_t FirstOccupied(uint64_t from) const;
  // Moves the window down to start at `bucket`; buckets that fall off its
  // top go to the overflow list.
  void Retreat(uint64_t bucket);
  // Moves every overflow entry now inside the window into its bucket.
  void Migrate();
  // Sorts the list of `bucket` by (at, key), and prefetches the next
  // occupied bucket's entries.
  void SortBucket(uint64_t bucket);
  void PrefetchBucket(uint32_t pos) const;

  Slots slots_;
  std::vector<uint32_t> next_;   // by slot: the next slot of its list
  std::vector<uint32_t> heads_;  // by bucket position, kNil when empty; sized by Insert
  std::array<uint64_t, kWords> occupied_{};
  std::vector<std::pair<TimeNs, uint32_t>> sort_buffer_;  // SortBucket's (at, slot) buffer
  // Every entry in the wheel sits in an absolute bucket in
  // [cursor_, cursor_ + kBuckets); every overflow entry in a later one than
  // cursor_ (possibly inside the window: Front() checks overflow_min_).
  uint64_t cursor_ = 0;
  uint64_t sorted_bucket_ = kNoBucket;  // the one bucket kept in order
  bool front_ready_ = false;            // Front() holds until the next change
  uint32_t overflow_ = kNil;
  TimeNs overflow_min_ = 0;  // least `at` on the overflow list
  size_t size_ = 0;
};

template <typename Slots>
void DueQueue<Slots>::Insert(uint32_t slot) {
  const TimeNs at = slots_.At(slot);
  DRACONIS_CHECK(at >= 0);
  if (heads_.empty()) {
    heads_.assign(kBuckets, kNil);  // on first use, so building a deployment stays cheap
  }
  if (slot >= next_.size()) {
    next_.resize(slot + 1, kNil);
  }
  const uint64_t bucket = BucketOf(at);
  front_ready_ = false;
  if (size_ == 0) {
    cursor_ = bucket;
  } else if (bucket < cursor_) {
    Retreat(bucket);
  }
  ++size_;
  if (bucket - cursor_ < kBuckets) {
    LinkIntoBucket(slot, bucket);
  } else {
    LinkIntoOverflow(slot);
  }
}

template <typename Slots>
uint32_t DueQueue<Slots>::Front() {
  DRACONIS_CHECK(size_ > 0);
  if (front_ready_) {
    return heads_[PositionOf(cursor_)];
  }
  uint64_t bucket = FirstOccupied(cursor_);
  if (overflow_ != kNil && (bucket == kNoBucket || BucketOf(overflow_min_) <= bucket)) {
    // The least entry may be on the overflow list. Move in everything the
    // window covers (jumping it to that entry if the wheel is empty), so
    // the next such scan waits until the front has crossed a whole window.
    if (bucket == kNoBucket) {
      cursor_ = BucketOf(overflow_min_);
    }
    Migrate();
    bucket = FirstOccupied(cursor_);
  }
  cursor_ = bucket;
  if (bucket != sorted_bucket_) {
    SortBucket(bucket);
  }
  front_ready_ = true;
  return heads_[PositionOf(bucket)];
}

template <typename Slots>
uint32_t DueQueue<Slots>::PopFront() {
  const uint32_t slot = Front();
  const uint32_t pos = PositionOf(cursor_);
  heads_[pos] = next_[slot];
  if (heads_[pos] == kNil) {
    occupied_[pos / 64] &= ~(uint64_t{1} << (pos % 64));
  }
  --size_;
  front_ready_ = false;
  return slot;
}

template <typename Slots>
template <typename AtNow>
void DueQueue<Slots>::TakeBefore(TimeNs now, AtNow at_now, std::vector<uint32_t>& out) {
  if (size_ == 0) {
    return;
  }
  const auto due = [this, now, &at_now](uint32_t slot) {
    const TimeNs at = slots_.At(slot);
    return at < now || (at == now && at_now(slot));
  };
  if (front_ready_ && !due(heads_[PositionOf(cursor_)])) {
    return;  // not even the least entry is due
  }
  const uint64_t now_bucket = BucketOf(now);
  const bool overflow_due = overflow_ != kNil && overflow_min_ <= now;
  uint64_t b = FirstOccupied(cursor_);
  if ((b == kNoBucket || b > now_bucket) && !overflow_due) {
    return;  // every entry lies past now's bucket
  }
  const size_t taken = out.size();
  // Whole buckets before now's.
  for (; b != kNoBucket && b < now_bucket; b = FirstOccupied(b + 1)) {
    const uint32_t pos = PositionOf(b);
    for (uint32_t slot = heads_[pos]; slot != kNil; slot = next_[slot]) {
      out.push_back(slot);
    }
    heads_[pos] = kNil;
    occupied_[pos / 64] &= ~(uint64_t{1} << (pos % 64));
    if (b == sorted_bucket_) {
      sorted_bucket_ = kNoBucket;
    }
  }
  // Every wheel entry now sits in now's bucket or later, inside the window.
  cursor_ = std::max(cursor_, now_bucket);
  if (b == now_bucket) {
    // The due entries of a sorted bucket are a prefix of it (`at_now` holds
    // for a prefix of the entries at `now` in key order).
    const uint32_t pos = PositionOf(now_bucket);
    const bool sorted = now_bucket == sorted_bucket_;
    for (uint32_t* link = &heads_[pos]; *link != kNil;) {
      const uint32_t slot = *link;
      if (due(slot)) {
        *link = next_[slot];
        out.push_back(slot);
      } else if (sorted) {
        break;
      } else {
        link = &next_[slot];
      }
    }
    if (heads_[pos] == kNil) {
      occupied_[pos / 64] &= ~(uint64_t{1} << (pos % 64));
    }
  }
  if (overflow_due) {
    // Filter the list, and move what the window covers into the wheel, as
    // Front() does when it reaches the list.
    uint32_t slot = overflow_;
    overflow_ = kNil;
    while (slot != kNil) {
      const uint32_t next = next_[slot];
      const uint64_t bucket = BucketOf(slots_.At(slot));
      if (due(slot)) {
        out.push_back(slot);
      } else if (bucket - cursor_ < kBuckets) {
        LinkIntoBucket(slot, bucket);
      } else {
        LinkIntoOverflow(slot);
      }
      slot = next;
    }
  }
  size_ -= out.size() - taken;
  front_ready_ = false;
}

template <typename Slots>
void DueQueue<Slots>::Clear() {
  for (uint32_t w = 0; w < kWords; ++w) {
    for (uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      heads_[w * 64 + static_cast<uint32_t>(std::countr_zero(bits))] = kNil;
    }
    occupied_[w] = 0;
  }
  overflow_ = kNil;
  sorted_bucket_ = kNoBucket;
  front_ready_ = false;
  size_ = 0;
}

template <typename Slots>
void DueQueue<Slots>::LinkIntoBucket(uint32_t slot, uint64_t bucket) {
  const uint32_t pos = PositionOf(bucket);
  uint32_t* link = &heads_[pos];
  if (bucket == sorted_bucket_) {
    while (*link != kNil && Before(*link, slot)) {
      link = &next_[*link];
    }
  }
  next_[slot] = *link;
  *link = slot;
  occupied_[pos / 64] |= uint64_t{1} << (pos % 64);
}

template <typename Slots>
void DueQueue<Slots>::LinkIntoOverflow(uint32_t slot) {
  const TimeNs at = slots_.At(slot);
  if (overflow_ == kNil || at < overflow_min_) {
    overflow_min_ = at;
  }
  next_[slot] = overflow_;
  overflow_ = slot;
}

template <typename Slots>
uint64_t DueQueue<Slots>::FirstOccupied(uint64_t from) const {
  if (from - cursor_ >= kBuckets) {
    return kNoBucket;
  }
  const uint32_t start = PositionOf(from);
  // Offsets from `from`; the window ends kBuckets - (from - cursor_) later.
  const uint32_t span = kBuckets - static_cast<uint32_t>(from - cursor_);
  uint32_t word = start / 64;
  uint64_t bits = occupied_[word] & (~uint64_t{0} << (start % 64));
  // kWords + 1 words: the start word is seen again last, for the positions
  // below `start`, which hold the window's top buckets.
  for (uint32_t i = 0; i <= kWords; ++i) {
    if (bits != 0) {
      const uint32_t pos = word * 64 + static_cast<uint32_t>(std::countr_zero(bits));
      const uint32_t offset = (pos + kBuckets - start) % kBuckets;
      return offset < span ? from + offset : kNoBucket;
    }
    word = (word + 1) % kWords;
    bits = occupied_[word];
  }
  return kNoBucket;
}

template <typename Slots>
void DueQueue<Slots>::Retreat(uint64_t bucket) {
  const uint64_t top = cursor_ + kBuckets;
  for (uint64_t b = std::max(bucket + kBuckets, cursor_); b < top; ++b) {
    const uint32_t pos = PositionOf(b);
    if ((occupied_[pos / 64] >> (pos % 64) & 1) == 0) {
      continue;
    }
    for (uint32_t slot = heads_[pos]; slot != kNil;) {
      const uint32_t next = next_[slot];
      LinkIntoOverflow(slot);
      slot = next;
    }
    heads_[pos] = kNil;
    occupied_[pos / 64] &= ~(uint64_t{1} << (pos % 64));
    if (b == sorted_bucket_) {
      sorted_bucket_ = kNoBucket;
    }
  }
  cursor_ = bucket;
}

template <typename Slots>
void DueQueue<Slots>::Migrate() {
  uint32_t slot = overflow_;
  overflow_ = kNil;
  while (slot != kNil) {
    const uint32_t next = next_[slot];
    const uint64_t bucket = BucketOf(slots_.At(slot));
    if (bucket - cursor_ < kBuckets) {
      LinkIntoBucket(slot, bucket);
    } else {
      LinkIntoOverflow(slot);
    }
    slot = next;
  }
}

template <typename Slots>
void DueQueue<Slots>::PrefetchBucket(uint32_t pos) const {
  for (uint32_t slot = heads_[pos]; slot != kNil; slot = next_[slot]) {
    slots_.Prefetch(slot);
  }
}

template <typename Slots>
void DueQueue<Slots>::SortBucket(uint64_t bucket) {
  const uint32_t pos = PositionOf(bucket);
  sorted_bucket_ = bucket;
  PrefetchBucket(pos);
  const uint64_t after = FirstOccupied(bucket + 1);
  if (after != kNoBucket) {
    PrefetchBucket(PositionOf(after));
  }
  const uint32_t head = heads_[pos];
  if (head == kNil || next_[head] == kNil) {
    return;
  }
  // Sorted by `at` first from a local copy: arrivals in one bucket rarely
  // share their nanosecond, so the full (at, key) comparison is rare.
  sort_buffer_.clear();
  for (uint32_t slot = head; slot != kNil; slot = next_[slot]) {
    sort_buffer_.emplace_back(slots_.At(slot), slot);
  }
  std::sort(sort_buffer_.begin(), sort_buffer_.end(),
            [this](const std::pair<TimeNs, uint32_t>& a, const std::pair<TimeNs, uint32_t>& b) {
              return a.first != b.first ? a.first < b.first
                                        : slots_.Key(a.second) < slots_.Key(b.second);
            });
  uint32_t next = kNil;
  for (auto it = sort_buffer_.rbegin(); it != sort_buffer_.rend(); ++it) {
    next_[it->second] = next;
    next = it->second;
  }
  heads_[pos] = next;
}

}  // namespace draconis::core

#endif  // DRACONIS_CORE_DUE_QUEUE_H_
