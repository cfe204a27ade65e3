#include "sim/ladder_queue.h"

#include <algorithm>
#include <limits>

namespace draconis::sim {
namespace {

// Rung horizons near the far end of TimeNs must not wrap.
TimeNs SaturatingAdd(TimeNs base, TimeNs delta) {
  const TimeNs sum = base + delta;
  return sum < base ? std::numeric_limits<TimeNs>::max() : sum;
}

}  // namespace

void LadderQueue::Clear() {
  live_ = 0;
  bottom_.clear();
  bottom_end_ = 0;
  for (size_t r = 0; r < depth_; ++r) {
    for (std::vector<EventKey>& bucket : rungs_[r].buckets) {
      bucket.clear();
    }
    rungs_[r].count = 0;
  }
  depth_ = 0;
  top_.clear();
}

void LadderQueue::DropDead(std::vector<EventKey>& keys) {
  if (gens_ == nullptr) {
    return;
  }
  const std::vector<uint64_t>& gens = *gens_;
  const auto dead = std::remove_if(keys.begin(), keys.end(), [&gens](const EventKey& key) {
    return gens[key.slot] != key.seq + 1;
  });
  live_ -= static_cast<size_t>(keys.end() - dead);
  keys.erase(dead, keys.end());
}

bool LadderQueue::EnsureBottom() {
  if (!bottom_.empty()) {
    return true;
  }
  for (;;) {
    if (depth_ == 0) {
      if (top_.empty()) {
        return false;
      }
      SpreadTop();
      continue;
    }
    Rung& rung = rungs_[depth_ - 1];
    if (rung.count == 0) {
      // Rung exhausted: everything up to its horizon has been drained, so
      // later pushes below rung.end belong in the bottom.
      bottom_end_ = rung.end;
      --depth_;
      continue;
    }
    size_t cur = rung.cur;
    while (rung.buckets[cur].empty()) {
      ++cur;
    }
    std::vector<EventKey>& bucket = rung.buckets[cur];
    const TimeNs bucket_start =
        SaturatingAdd(rung.start, static_cast<TimeNs>(cur) << rung.width_log2);
    const TimeNs bucket_end =
        SaturatingAdd(bucket_start, TimeNs{1} << rung.width_log2);
    rung.count -= bucket.size();
    rung.cur = cur + 1;
    if (rung.width_log2 == 0 || bucket.size() <= kSortThreshold) {
      // Sparse (or 1 ns wide, the recursion floor): batch-sort into the
      // bottom. Gather further consecutive sparse buckets into the same
      // batch: lightly-loaded queues would otherwise pay the refill fixed
      // cost (sort prologue, this walk) every few pops. Consecutive
      // buckets partition a contiguous window, so sorting the union is
      // still exactly the global (at, seq) order for that window. Each
      // bucket is copied in, not swapped: a swap would hand the bottom's
      // grown capacity to a wheel bucket, and the wheel has thousands.
      bottom_.insert(bottom_.end(), bucket.begin(), bucket.end());
      bucket.clear();
      bottom_end_ = bucket_end;
      while (bottom_.size() < kSortThreshold && rung.count > 0) {
        size_t next = rung.cur;
        while (rung.buckets[next].empty()) {
          ++next;
        }
        std::vector<EventKey>& more = rung.buckets[next];
        if (more.size() > kSortThreshold && rung.width_log2 != 0) {
          break;  // dense: leave it for the re-spread path
        }
        rung.count -= more.size();
        rung.cur = next + 1;
        bottom_.insert(bottom_.end(), more.begin(), more.end());
        more.clear();
        bottom_end_ = SaturatingAdd(
            rung.start, static_cast<TimeNs>(next + 1) << rung.width_log2);
      }
      // The bottom is stored latest-first. 1 ns buckets are sorted by
      // construction (ascending seq within one instant, ascending time
      // across the gathered run; see kWheelSpan), so their batch only needs
      // reversing.
      if (rung.width_log2 == 0) {
        std::reverse(bottom_.begin(), bottom_.end());
      } else {
        std::sort(bottom_.begin(), bottom_.end(),
                  [](const EventKey& a, const EventKey& b) { return EventKeyBefore(b, a); });
      }
      return true;
    }
    // Dense: re-spread one level finer and keep walking. The rung reference
    // dies here — SpawnRung may grow rungs_.
    spread_scratch_.swap(bucket);
    const int parent_width_log2 = rung.width_log2;
    SpawnRung(bucket_start, parent_width_log2);
    bottom_end_ = bucket_start;
  }
}

void LadderQueue::SpawnRung(TimeNs start, int parent_width_log2) {
  DropDead(spread_scratch_);
  // Parents within the wheel span whose keys are dense enough (the drain
  // walks every empty slot, so >= 1 key per 16 slots) skip the
  // intermediate levels and go straight to sorted-by-construction 1 ns
  // buckets.
  int width_log2;
  if (parent_width_log2 <= kRungBucketsLog2) {
    width_log2 = 0;
  } else if (parent_width_log2 <= kWheelSpanLog2 &&
             spread_scratch_.size() >=
                 (size_t{1} << (parent_width_log2 - 4))) {
    width_log2 = 0;
  } else {
    width_log2 = parent_width_log2 - kRungBucketsLog2;
  }
  const size_t nbuckets = size_t{1} << (parent_width_log2 - width_log2);
  if (depth_ == rungs_.size()) {
    rungs_.emplace_back();
  }
  Rung& rung = rungs_[depth_];
  ++depth_;
  rung.start = start;
  rung.end = SaturatingAdd(start, TimeNs{1} << parent_width_log2);
  rung.width_log2 = width_log2;
  rung.cur = 0;
  rung.count = spread_scratch_.size();
  if (rung.buckets.size() < nbuckets) {
    rung.buckets.resize(nbuckets);
  }
  // Buckets past nbuckets may survive from the pooled rung's previous life;
  // they are empty, and cur never reaches them while count > 0.
  for (const EventKey& key : spread_scratch_) {
    rung.buckets[static_cast<size_t>(key.at - start) >> width_log2].push_back(
        key);
  }
  spread_scratch_.clear();
}

void LadderQueue::SpreadTop() {
  DropDead(top_);
  if (top_.empty()) {
    return;
  }
  const auto [lo, hi] = std::minmax_element(
      top_.begin(), top_.end(),
      [](const EventKey& a, const EventKey& b) { return a.at < b.at; });
  const TimeNs top_min = lo->at;
  const TimeNs top_max = hi->at;
  // Size bucket width to the actual min..max span so sparse far-future sets
  // (a handful of timeouts ms ahead) land in distinct buckets — but cover
  // kCoverageFactor times the span: steady-state workloads keep scheduling
  // into the same horizon while the rung drains, and the extra coverage
  // lets those pushes land in rung buckets directly instead of cycling
  // through the top again on the next epoch.
  const TimeNs base_span = top_max - top_min + 1;
  const TimeNs span =
      base_span > std::numeric_limits<TimeNs>::max() / kCoverageFactor
          ? std::numeric_limits<TimeNs>::max()
          : base_span * kCoverageFactor;
  // Short spans with dense-enough keys (>= 1 per 16 slots; the drain walks
  // every empty slot) go straight to the 1 ns timer wheel, which never
  // sorts; longer or sparser ones get kRungBuckets coarse buckets refined
  // lazily.
  int width_log2 = 0;
  if (span > kWheelSpan ||
      top_.size() < static_cast<size_t>(span) / 16) {
    width_log2 = 0;
    while (width_log2 < 56 &&
           (static_cast<TimeNs>(kRungBuckets) << width_log2) < span) {
      ++width_log2;
    }
  }
  if (rungs_.empty()) {
    rungs_.emplace_back();
  }
  // The bucket cap is kWheelSpan for the wheel and kRungBuckets otherwise,
  // unless the width cap above kicked in (a span of centuries); sizing from
  // the real max index keeps the spread in bounds either way.
  const size_t cap =
      width_log2 == 0 ? static_cast<size_t>(kWheelSpan) : kRungBuckets;
  const size_t nbuckets = std::max(
      (static_cast<size_t>(top_max - top_min) >> width_log2) + 1,
      std::min<size_t>(cap, (static_cast<size_t>(span) >> width_log2) + 1));
  Rung& rung = rungs_[0];
  depth_ = 1;
  rung.start = top_min;
  rung.end = SaturatingAdd(top_min, static_cast<TimeNs>(nbuckets) << width_log2);
  rung.width_log2 = width_log2;
  rung.cur = 0;
  rung.count = top_.size();
  if (rung.buckets.size() < nbuckets) {
    rung.buckets.resize(nbuckets);
  }
  for (const EventKey& key : top_) {
    rung.buckets[static_cast<size_t>(key.at - top_min) >> width_log2]
        .push_back(key);
  }
  top_.clear();
  bottom_end_ = top_min;
}

}  // namespace draconis::sim
