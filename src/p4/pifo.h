// PIFO (push-in-first-out) queue model of a programmable switch.
//
// Sivaraman et al., "Programmable Packet Scheduling at Line Rate": a single
// hardware primitive — a bounded priority queue that admits an element at the
// position its *rank* dictates and only ever dequeues from the head — can
// express strict priority, SRPT, EDF, weighted fairness, and most other
// work-conserving disciplines purely by changing the rank computation. The
// rank is computed in the match-action stages *before* the PIFO block, so the
// block itself stays policy-free.
//
// This model follows the same register discipline as RegisterArray
// (register.h): the whole PIFO block counts as ONE register group, so a
// packet pass may either Push or Pop once — a second operation throws
// CheckFailure, exactly like touching a RegisterArray twice. That matches the
// hardware, where the PIFO is a dedicated block with a single
// admit-or-dequeue port per packet time.
//
// Ordering contract (pinned by tests/pifo_property_test.cc):
//   - Pop returns the element with the smallest rank.
//   - Equal ranks dequeue in arrival order (FIFO): every Push consumes one
//     arrival sequence number, admitted or not, and ties are broken by it.
//   - At capacity, Push refuses the incoming element.
//
// Register budget: `capacity` elements of `wire_bytes_per_element` payload
// plus an 8-byte rank per element, accounted in the ResourceLedger like any
// other register group (paper §7 capacity analysis).

#ifndef DRACONIS_P4_PIFO_H_
#define DRACONIS_P4_PIFO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "p4/register.h"

namespace draconis::p4 {

template <typename T>
class Pifo {
 public:
  Pifo(std::string name, size_t capacity, ResourceLedger* ledger = nullptr,
       size_t wire_bytes_per_element = sizeof(T))
      : name_(std::move(name)), capacity_(capacity) {
    DRACONIS_CHECK(capacity > 0);
    if (ledger != nullptr) {
      // Payload registers plus the per-element 8-byte rank store.
      ledger->Account(name_, capacity, capacity * (wire_bytes_per_element + 8));
    }
    heap_.reserve(capacity);
  }

  Pifo(const Pifo&) = delete;
  Pifo& operator=(const Pifo&) = delete;

  // Admits `value` at the position `rank` dictates, unless the PIFO is full;
  // returns whether it did. Consumes this pass's single access to the PIFO
  // block and one arrival sequence number either way.
  bool Push(PacketPass& pass, uint64_t rank, T value) {
    Claim(pass);
    const uint64_t seq = next_seq_++;
    if (heap_.size() == capacity_) {
      return false;
    }
    heap_.push_back(Item{rank, seq, std::move(value)});
    SiftUp(heap_.size() - 1);
    return true;
  }

  struct PopResult {
    bool got = false;
    T value{};
    uint64_t rank = 0;
  };

  // Dequeues the head (smallest rank, earliest arrival). Consumes this
  // pass's single access to the PIFO block.
  PopResult Pop(PacketPass& pass) {
    Claim(pass);
    PopResult result;
    if (heap_.empty()) {
      return result;
    }
    result.got = true;
    result.value = std::move(heap_.front().value);
    result.rank = heap_.front().rank;
    RemoveAt(0);
    return result;
  }

  // --- Control-plane observability (switch CPU; not pass-limited) ----------

  const std::string& name() const { return name_; }
  size_t capacity() const { return capacity_; }
  size_t cp_size() const { return heap_.size(); }
  bool cp_empty() const { return heap_.empty(); }
  uint64_t cp_min_rank() const {
    DRACONIS_CHECK_MSG(!heap_.empty(), "cp_min_rank on empty PIFO: " + name_);
    return heap_.front().rank;
  }

 private:
  struct Item {
    uint64_t rank = 0;
    uint64_t seq = 0;
    T value{};
  };

  static bool Before(const Item& a, const Item& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.seq < b.seq;
  }

  void Claim(PacketPass& pass) {
    DRACONIS_CHECK_MSG(pass.TryMarkAccess(this),
                       "PIFO accessed twice in one packet pass: " + name_);
  }

  void SiftUp(size_t i) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Before(heap_[i], heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void SiftDown(size_t i) {
    for (;;) {
      const size_t left = 2 * i + 1;
      const size_t right = left + 1;
      size_t smallest = i;
      if (left < heap_.size() && Before(heap_[left], heap_[smallest])) {
        smallest = left;
      }
      if (right < heap_.size() && Before(heap_[right], heap_[smallest])) {
        smallest = right;
      }
      if (smallest == i) {
        break;
      }
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  void RemoveAt(size_t i) {
    heap_[i] = std::move(heap_.back());
    heap_.pop_back();
    if (i < heap_.size()) {
      SiftDown(i);
      SiftUp(i);
    }
  }

  std::string name_;
  size_t capacity_;
  std::vector<Item> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace draconis::p4

#endif  // DRACONIS_P4_PIFO_H_
