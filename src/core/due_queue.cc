#include "core/due_queue.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace draconis::core {

bool DueQueue::Before(uint32_t a, uint32_t b) const {
  if (entries_[a].at != entries_[b].at) {
    return entries_[a].at < entries_[b].at;
  }
  return keys_[a] < keys_[b];
}

void DueQueue::Insert(uint32_t slot, TimeNs at, const p4::IngressKey& key) {
  DRACONIS_CHECK(at >= 0);
  if (heads_.empty()) {
    heads_.assign(kBuckets, kNil);  // on first use, so building a deployment stays cheap
  }
  if (slot >= entries_.size()) {
    entries_.resize(slot + 1);
    keys_.resize(slot + 1);
  }
  entries_[slot].at = at;
  keys_[slot] = key;
  const uint64_t bucket = BucketOf(at);
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

uint32_t DueQueue::Front() {
  DRACONIS_CHECK(size_ > 0);
  uint64_t bucket = FirstOccupied();
  if (overflow_ != kNil && (bucket == kNoBucket || BucketOf(overflow_min_) <= bucket)) {
    // The least entry may be on the overflow list. Move in everything the
    // window covers (jumping it to that entry if the wheel is empty), so
    // the next such scan waits until the front has crossed a whole window.
    if (bucket == kNoBucket) {
      cursor_ = BucketOf(overflow_min_);
    }
    Migrate();
    bucket = FirstOccupied();
  }
  cursor_ = bucket;
  if (bucket != sorted_bucket_) {
    SortBucket(bucket);
  }
  return heads_[PositionOf(bucket)];
}

uint32_t DueQueue::PopFront() {
  const uint32_t slot = Front();
  const uint32_t pos = PositionOf(cursor_);
  heads_[pos] = entries_[slot].next;
  if (heads_[pos] == kNil) {
    occupied_[pos / 64] &= ~(uint64_t{1} << (pos % 64));
  }
  --size_;
  return slot;
}

void DueQueue::Clear() {
  for (uint32_t w = 0; w < kWords; ++w) {
    for (uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      heads_[w * 64 + static_cast<uint32_t>(std::countr_zero(bits))] = kNil;
    }
    occupied_[w] = 0;
  }
  overflow_ = kNil;
  sorted_bucket_ = kNoBucket;
  size_ = 0;
}

void DueQueue::LinkIntoBucket(uint32_t slot, uint64_t bucket) {
  const uint32_t pos = PositionOf(bucket);
  uint32_t* link = &heads_[pos];
  if (bucket == sorted_bucket_) {
    while (*link != kNil && Before(*link, slot)) {
      link = &entries_[*link].next;
    }
  }
  entries_[slot].next = *link;
  *link = slot;
  occupied_[pos / 64] |= uint64_t{1} << (pos % 64);
}

void DueQueue::LinkIntoOverflow(uint32_t slot) {
  const TimeNs at = entries_[slot].at;
  if (overflow_ == kNil || at < overflow_min_) {
    overflow_min_ = at;
  }
  entries_[slot].next = overflow_;
  overflow_ = slot;
}

uint64_t DueQueue::FirstOccupied() const {
  const uint32_t start = PositionOf(cursor_);
  uint32_t word = start / 64;
  uint64_t bits = occupied_[word] & (~uint64_t{0} << (start % 64));
  // kWords + 1 words: the start word is seen again last, for the positions
  // below `start`, which hold the window's top buckets.
  for (uint32_t i = 0; i <= kWords; ++i) {
    if (bits != 0) {
      const uint32_t pos = word * 64 + static_cast<uint32_t>(std::countr_zero(bits));
      return cursor_ + (pos + kBuckets - start) % kBuckets;
    }
    word = (word + 1) % kWords;
    bits = occupied_[word];
  }
  return kNoBucket;
}

void DueQueue::Retreat(uint64_t bucket) {
  const uint64_t top = cursor_ + kBuckets;
  for (uint64_t b = std::max(bucket + kBuckets, cursor_); b < top; ++b) {
    const uint32_t pos = PositionOf(b);
    if ((occupied_[pos / 64] >> (pos % 64) & 1) == 0) {
      continue;
    }
    for (uint32_t slot = heads_[pos]; slot != kNil;) {
      const uint32_t next = entries_[slot].next;
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

void DueQueue::Migrate() {
  uint32_t slot = overflow_;
  overflow_ = kNil;
  while (slot != kNil) {
    const uint32_t next = entries_[slot].next;
    const uint64_t bucket = BucketOf(entries_[slot].at);
    if (bucket - cursor_ < kBuckets) {
      LinkIntoBucket(slot, bucket);
    } else {
      LinkIntoOverflow(slot);
    }
    slot = next;
  }
}

void DueQueue::SortBucket(uint64_t bucket) {
  const uint32_t pos = PositionOf(bucket);
  sorted_bucket_ = bucket;
  const uint32_t head = heads_[pos];
  if (head == kNil || entries_[head].next == kNil) {
    return;
  }
  // Sorted by `at` first from a local copy: arrivals in one bucket rarely
  // share their nanosecond, so the full (at, key) comparison is rare.
  scratch_.clear();
  for (uint32_t slot = head; slot != kNil; slot = entries_[slot].next) {
    scratch_.emplace_back(entries_[slot].at, slot);
  }
  std::sort(scratch_.begin(), scratch_.end(),
            [this](const std::pair<TimeNs, uint32_t>& a, const std::pair<TimeNs, uint32_t>& b) {
              return a.first != b.first ? a.first < b.first : Before(a.second, b.second);
            });
  uint32_t next = kNil;
  for (auto it = scratch_.rbegin(); it != scratch_.rend(); ++it) {
    entries_[it->second].next = next;
    next = it->second;
  }
  heads_[pos] = next;
}

}  // namespace draconis::core
