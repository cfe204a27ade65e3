// Register model of a programmable switch.
//
// The defining restriction of Tofino-class hardware (paper §2.1.1): a
// register (stateful memory) can be operated on AT MOST ONCE per packet
// traversal, and the single operation must be one of the stateful-ALU shapes
// (read, write, read-modify-write with simple arithmetic, or a predicated
// exchange). Two reads, or a read followed by a write, of the same register
// for the same packet are impossible in hardware.
//
// RegisterArray enforces that restriction at runtime: every operation takes a
// PacketPass context, and a second operation on the same array within one
// pass throws CheckFailure. This makes the paper's delayed-pointer-correction
// queue design load-bearing — a textbook circular queue written against this
// API fails its tests.
//
// A RegisterArray<T> with a struct T stands for a group of parallel per-field
// 32/64-bit register arrays living in adjacent stages, each accessed once for
// the same index — which is how multi-field queue entries are laid out on
// real hardware. The single-access rule is enforced on the group.

#ifndef DRACONIS_P4_REGISTER_H_
#define DRACONIS_P4_REGISTER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace draconis::p4 {

// Tracks which register arrays a packet has touched during one pipeline
// traversal. Recirculating a packet starts a new pass with a fresh budget,
// which is exactly the loophole the paper's design exploits.
class PacketPass {
 public:
  PacketPass() = default;
  PacketPass(const PacketPass&) = delete;
  PacketPass& operator=(const PacketPass&) = delete;

  // Starts a new pass with a fresh budget. Keeps the access list's capacity,
  // so a guard reused pass after pass stops allocating.
  void Reset() { accessed_.clear(); }

  // Returns true if this is the first access to `reg` in this pass.
  bool TryMarkAccess(const void* reg) {
    for (const void* seen : accessed_) {
      if (seen == reg) {
        return false;
      }
    }
    accessed_.push_back(reg);
    return true;
  }

  size_t accesses() const { return accessed_.size(); }

 private:
  std::vector<const void*> accessed_;
};

// Accounts switch SRAM consumed by register arrays; used by the capacity
// analysis bench (paper §7).
class ResourceLedger {
 public:
  struct Entry {
    std::string name;
    size_t elements;
    size_t bytes;
  };

  void Account(std::string name, size_t elements, size_t bytes) {
    total_bytes_ += bytes;
    entries_.push_back(Entry{std::move(name), elements, bytes});
  }

  size_t total_bytes() const { return total_bytes_; }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  size_t total_bytes_ = 0;
  std::vector<Entry> entries_;
};

template <typename T>
class RegisterArray {
 public:
  // `wire_bytes_per_element` is the hardware footprint of one element, which
  // can be smaller than sizeof(T) because T carries simulation metadata.
  //
  // Elements live in chunks of 2^10, each built (every element a copy of
  // `initial`) the first time one of its elements is touched: a 164 K-entry
  // queue costs no page faults at set-up, and its resident memory is the
  // chunks the run touched. One reserved block would not do that: once the
  // allocator serves it from recycled heap pages, whether its untouched
  // tail is resident depends on the heap's history.
  RegisterArray(std::string name, size_t size, T initial = T{},
                ResourceLedger* ledger = nullptr, size_t wire_bytes_per_element = sizeof(T))
      : name_(std::move(name)), size_(size), initial_(std::move(initial)) {
    DRACONIS_CHECK(size > 0);
    chunks_.resize(((size - 1) >> kChunkLog2) + 1);
    if (ledger != nullptr) {
      ledger->Account(name_, size, size * wire_bytes_per_element);
    }
  }

  RegisterArray(const RegisterArray&) = delete;
  RegisterArray& operator=(const RegisterArray&) = delete;

  size_t size() const { return size_; }
  const std::string& name() const { return name_; }

  // --- Stateful-ALU operations (each consumes this pass's single access) ----

  T Read(PacketPass& pass, size_t i) { return Claim(pass, i); }

  void Write(PacketPass& pass, size_t i, T value) { Claim(pass, i) = std::move(value); }

  // Atomic fetch-and-add; returns the previous value.
  T ReadAndAdd(PacketPass& pass, size_t i, T delta) {
    T& slot = Claim(pass, i);
    T old = slot;
    slot = old + delta;
    return old;
  }

  // Atomic exchange; returns the previous value.
  T Exchange(PacketPass& pass, size_t i, T value) {
    T& slot = Claim(pass, i);
    T old = std::move(slot);
    slot = std::move(value);
    return old;
  }

  // Predicated exchange: writes only if `condition` (a predicate computed
  // from packet metadata in earlier stages); always returns the old value.
  T ConditionalExchange(PacketPass& pass, size_t i, bool condition, T value) {
    T& slot = Claim(pass, i);
    T old = slot;
    if (condition) {
      slot = std::move(value);
    }
    return old;
  }

  // General predicated read-modify-write: applies `fn` to the stored value
  // and returns the previous value. This models a stateful-ALU RegisterAction
  // (predicate on own fields, select among a few update expressions) — keep
  // `fn` within that envelope: compare/select/add on the stored fields, no
  // loops, no external state mutation.
  template <typename Fn>
  T Update(PacketPass& pass, size_t i, Fn fn) {
    T& slot = Claim(pass, i);
    T old = slot;
    slot = fn(old);
    return old;
  }

  // Conditional fetch-and-add: adds only when the current value satisfies
  // `current <= ceiling` (the stateful-ALU comparison). Returns {old value,
  // whether the add happened}.
  std::pair<T, bool> AddIfAtMost(PacketPass& pass, size_t i, T ceiling, T delta) {
    T& slot = Claim(pass, i);
    T old = slot;
    const bool applied = !(ceiling < old);
    if (applied) {
      slot = old + delta;
    }
    return {old, applied};
  }

  // --- Control-plane access (not subject to the per-packet limit) ----------
  // The switch CPU can read/write registers out of band; the paper's control
  // plane uses this for initialization and monitoring only.

  const T& ControlPlaneRead(size_t i) const {
    DRACONIS_CHECK(i < size_);
    const std::vector<T>& chunk = chunks_[i >> kChunkLog2];
    return chunk.empty() ? initial_ : chunk[i & kChunkMask];
  }

  void ControlPlaneWrite(size_t i, T value) {
    DRACONIS_CHECK(i < size_);
    At(i) = std::move(value);
  }

 private:
  T& Claim(PacketPass& pass, size_t i) {
    DRACONIS_CHECK_MSG(i < size_, "register index out of range: " + name_);
    DRACONIS_CHECK_MSG(pass.TryMarkAccess(this),
                       "register accessed twice in one packet pass: " + name_);
    return At(i);
  }

  // About 100 KB of queue entries per chunk.
  static constexpr int kChunkLog2 = 10;
  static constexpr size_t kChunkMask = (size_t{1} << kChunkLog2) - 1;

  // Builds the chunk holding `i` on first touch.
  T& At(size_t i) {
    const size_t c = i >> kChunkLog2;
    std::vector<T>& chunk = chunks_[c];
    if (chunk.empty()) {
      chunk.assign(std::min(size_ - (c << kChunkLog2), kChunkMask + 1), initial_);
    }
    return chunk[i & kChunkMask];
  }

  std::string name_;
  size_t size_;
  T initial_;
  std::vector<std::vector<T>> chunks_;  // empty until one of its elements is touched
};

}  // namespace draconis::p4

#endif  // DRACONIS_P4_REGISTER_H_
