// The idle-poll roster's due queue: parked trains ordered by their next
// switch arrival (core/poll_roster.h).
//
// Entries are caller slots keyed (at, IngressKey), served in exactly that
// order. The queue is a timing wheel: kBuckets buckets of kBucketWidth ns
// cover a window of absolute bucket numbers [cursor, cursor + kBuckets), and
// an entry lives in the bucket of at / kBucketWidth. Entries past the window
// wait on an unsorted overflow list. When the front reaches the least of
// them, every overflow entry the window covers moves into the wheel, so an
// entry is rescanned about once per window the front crosses. A bucket is an
// intrusive singly linked list through the entries, kept unsorted until it
// becomes the front bucket, which is then sorted once and kept sorted. An
// occupancy bitmap finds the next non-empty bucket in a few word scans.
//
// Memory is O(slots) plus the fixed bucket array: a bucket owns no storage
// of its own, so rotating the window allocates nothing.

#ifndef DRACONIS_CORE_DUE_QUEUE_H_
#define DRACONIS_CORE_DUE_QUEUE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/time.h"
#include "p4/pipeline.h"

namespace draconis::core {

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

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Queues `slot` (not queued already) at (at, key); at >= 0.
  void Insert(uint32_t slot, TimeNs at, const p4::IngressKey& key);
  // The slot with the least (at, key). Requires !empty().
  uint32_t Front();
  // Removes and returns Front().
  uint32_t PopFront();
  // Drops every entry.
  void Clear();

  TimeNs at(uint32_t slot) const { return entries_[slot].at; }
  const p4::IngressKey& key(uint32_t slot) const { return keys_[slot]; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr uint64_t kNoBucket = UINT64_MAX;
  static constexpr uint32_t kWords = kBuckets / 64;

  // What a bucket walk touches; the keys, needed only to break ties, live
  // apart in keys_ so a walk reads 16 bytes per entry.
  struct Entry {
    TimeNs at = 0;
    uint32_t next = kNil;
  };

  static uint64_t BucketOf(TimeNs at) { return static_cast<uint64_t>(at / kBucketWidth); }
  static uint32_t PositionOf(uint64_t bucket) {
    return static_cast<uint32_t>(bucket % kBuckets);
  }
  bool Before(uint32_t a, uint32_t b) const;

  // Links `slot` into its bucket (inside the window).
  void LinkIntoBucket(uint32_t slot, uint64_t bucket);
  void LinkIntoOverflow(uint32_t slot);
  // The first occupied bucket of the window, or kNoBucket.
  uint64_t FirstOccupied() const;
  // Moves the window down to start at `bucket`; buckets that fall off its
  // top go to the overflow list.
  void Retreat(uint64_t bucket);
  // Moves every overflow entry now inside the window into its bucket.
  void Migrate();
  // Sorts the list of `bucket` by (at, key).
  void SortBucket(uint64_t bucket);

  std::vector<Entry> entries_;  // by slot
  std::vector<p4::IngressKey> keys_;  // by slot
  std::vector<uint32_t> heads_;  // by bucket position, kNil when empty; sized by Insert
  std::array<uint64_t, kWords> occupied_{};
  std::vector<std::pair<TimeNs, uint32_t>> scratch_;  // SortBucket's (at, slot) buffer
  // Every entry in the wheel sits in an absolute bucket in
  // [cursor_, cursor_ + kBuckets); every overflow entry in a later one than
  // cursor_ (possibly inside the window: Front() checks overflow_min_).
  uint64_t cursor_ = 0;
  uint64_t sorted_bucket_ = kNoBucket;  // the one bucket kept in order
  uint32_t overflow_ = kNil;
  TimeNs overflow_min_ = 0;  // least `at` on the overflow list
  size_t size_ = 0;
};

}  // namespace draconis::core

#endif  // DRACONIS_CORE_DUE_QUEUE_H_
