// Per-task slots of the jobs a client has open, indexed by (jid, tid).
//
// A client assigns jids in order, so the jobs with an open task form a
// window of consecutive jids. JobSlots keeps that window as a ring of
// per-job slot vectors indexed by jid - base: a lookup is two array
// indexings, not a hash. The oldest job leaves the window once none of its
// tasks is open, so memory stays bounded by the outstanding window, and its
// vector keeps its capacity for a later job.

#ifndef DRACONIS_CLUSTER_JOB_SLOTS_H_
#define DRACONIS_CLUSTER_JOB_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace draconis::cluster {

template <typename Slot>
class JobSlots {
 public:
  // Opens job `jid` with `tasks` open slots, value-initialized, and returns
  // them as an array indexed by tid. `jid` must be newer than every job
  // opened before; a jid skipped on the way reads as a job with nothing open.
  Slot* Open(uint32_t jid, size_t tasks) {
    DRACONIS_CHECK(tasks > 0);
    if (size_ == 0) {
      base_ = jid;
    }
    DRACONIS_CHECK_MSG(jid >= base_ + size_, "jids must be opened in increasing order");
    while (base_ + size_ <= jid) {
      if (size_ == ring_.size()) {
        Grow();
      }
      Job& job = ring_[(head_ + size_) & (ring_.size() - 1)];
      job.slots.clear();
      job.is_open.clear();
      job.open = 0;
      ++size_;
    }
    Job& job = At(jid);
    job.slots.resize(tasks);
    job.is_open.assign(tasks, 1);
    job.open = tasks;
    open_ += tasks;
    return job.slots.data();
  }

  // The open slot of (jid, tid); null when it was closed or never opened.
  Slot* Find(uint32_t jid, uint32_t tid) {
    if (jid < base_ || jid - base_ >= size_) {
      return nullptr;
    }
    Job& job = At(jid);
    if (tid >= job.slots.size() || !job.is_open[tid]) {
      return nullptr;
    }
    return &job.slots[tid];
  }

  // Closes an open slot. The slot must not be used afterwards.
  void Close(uint32_t jid, uint32_t tid) {
    DRACONIS_CHECK(Find(jid, tid) != nullptr);
    Job& job = At(jid);
    job.is_open[tid] = 0;
    --job.open;
    --open_;
    while (size_ > 0 && ring_[head_].open == 0) {
      head_ = (head_ + 1) & (ring_.size() - 1);
      ++base_;
      --size_;
    }
  }

  // Slots open across every job.
  size_t open() const { return open_; }

 private:
  struct Job {
    std::vector<Slot> slots;       // one per tid
    std::vector<uint8_t> is_open;  // one per tid
    size_t open = 0;               // tids still open
  };

  Job& At(uint32_t jid) { return ring_[(head_ + (jid - base_)) & (ring_.size() - 1)]; }

  // Doubles the ring (a power of two), keeping the window in jid order.
  void Grow() {
    std::vector<Job> bigger(ring_.empty() ? 8 : 2 * ring_.size());
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<Job> ring_;
  size_t head_ = 0;    // ring index of jid base_
  size_t size_ = 0;    // jobs in the window [base_, base_ + size_)
  uint32_t base_ = 0;  // the oldest jid in the window
  size_t open_ = 0;
};

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_JOB_SLOTS_H_
