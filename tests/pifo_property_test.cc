// Oracle differential test for the p4::Pifo primitive (docs/pifo.md).
//
// A naive reference — a flat vector of (rank, seq, id) whose pop is a linear
// scan for the minimum under the (rank, seq) lexicographic order — is driven
// through the same randomized push/pop interleavings as the real bounded
// heap, at a small capacity so overflow fires constantly. At every step the
// admit/reject decision, the popped element, the size, and the head rank
// must match exactly. 32 seeds x 10k operations, the same rigor as
// event_queue_property_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "p4/pifo.h"
#include "p4/register.h"

namespace draconis::p4 {
namespace {

struct RefItem {
  uint64_t rank = 0;
  uint64_t seq = 0;
  int id = 0;
};

bool RefBefore(const RefItem& a, const RefItem& b) {
  return a.rank != b.rank ? a.rank < b.rank : a.seq < b.seq;
}

// The oracle: mirrors the PIFO contract directly from its spec — every push
// attempt consumes one seq; pop removes the (rank, seq) minimum; at capacity
// the arrival is refused.
class ReferencePifo {
 public:
  explicit ReferencePifo(size_t capacity) : capacity_(capacity) {}

  bool Push(uint64_t rank, int id) {
    const uint64_t seq = next_seq_++;
    if (items_.size() == capacity_) {
      return false;
    }
    items_.push_back(RefItem{rank, seq, id});
    return true;
  }

  struct PopOutcome {
    bool got = false;
    int id = 0;
    uint64_t rank = 0;
  };

  PopOutcome Pop() {
    PopOutcome outcome;
    if (items_.empty()) {
      return outcome;
    }
    auto head = std::min_element(items_.begin(), items_.end(), RefBefore);
    outcome.got = true;
    outcome.id = head->id;
    outcome.rank = head->rank;
    items_.erase(head);
    return outcome;
  }

  size_t size() const { return items_.size(); }
  uint64_t min_rank() const {
    return std::min_element(items_.begin(), items_.end(), RefBefore)->rank;
  }

 private:
  size_t capacity_;
  uint64_t next_seq_ = 0;
  std::vector<RefItem> items_;
};

void DriveSeed(uint64_t seed, int steps, size_t capacity) {
  Pifo<int> pifo("pifo_under_test", capacity);
  ReferencePifo ref(capacity);
  Rng rng(seed);
  int next_id = 0;

  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 55) {
      // Push. Half the ranks land in a tiny range so rank ties (and the FIFO
      // tie-break) are exercised hard; the rest spread wide.
      const uint64_t rank = rng.NextBool(0.5) ? rng.NextBelow(4) : rng.NextBelow(1000000);
      const int id = next_id++;
      PacketPass pass;
      const bool admitted = pifo.Push(pass, rank, id);
      ASSERT_EQ(admitted, ref.Push(rank, id)) << "seed=" << seed << " step=" << step;
    } else {
      // Pop.
      PacketPass pass;
      const Pifo<int>::PopResult got = pifo.Pop(pass);
      const ReferencePifo::PopOutcome want = ref.Pop();
      ASSERT_EQ(got.got, want.got) << "seed=" << seed << " step=" << step;
      if (want.got) {
        ASSERT_EQ(got.value, want.id) << "seed=" << seed << " step=" << step;
        ASSERT_EQ(got.rank, want.rank) << "seed=" << seed << " step=" << step;
      }
    }

    // Invariants after every operation.
    ASSERT_EQ(pifo.cp_size(), ref.size()) << "seed=" << seed << " step=" << step;
    if (ref.size() > 0) {
      ASSERT_EQ(pifo.cp_min_rank(), ref.min_rank()) << "seed=" << seed << " step=" << step;
    }
  }

  // Final drain must agree element-for-element.
  while (ref.size() > 0) {
    PacketPass pass;
    const Pifo<int>::PopResult got = pifo.Pop(pass);
    const ReferencePifo::PopOutcome want = ref.Pop();
    ASSERT_TRUE(got.got);
    ASSERT_EQ(got.value, want.id) << "seed=" << seed;
    ASSERT_EQ(got.rank, want.rank) << "seed=" << seed;
  }
  ASSERT_TRUE(pifo.cp_empty());
}

TEST(PifoPropertyTest, RejectArrivalMatchesReferenceAcross32Seeds) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    DriveSeed(seed, 10000, /*capacity=*/16);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// A deliberately adversarial clustering: every rank equal, so the pop order
// must be exactly the arrival order (the FIFO tie-break), across overflow.
TEST(PifoPropertyTest, EqualRanksDequeueInArrivalOrder) {
  Pifo<int> pifo("ties", 64);
  for (int id = 0; id < 64; ++id) {
    PacketPass pass;
    ASSERT_TRUE(pifo.Push(pass, 7, id));
  }
  {
    // Full: the arrival is refused, never an earlier resident.
    PacketPass pass;
    EXPECT_FALSE(pifo.Push(pass, 7, 999));
  }
  for (int id = 0; id < 64; ++id) {
    PacketPass pass;
    const Pifo<int>::PopResult pop = pifo.Pop(pass);
    ASSERT_TRUE(pop.got);
    EXPECT_EQ(pop.value, id);
  }
}

// The PIFO block is one register group: a second operation in the same
// packet pass is impossible in hardware and throws in the model.
TEST(PifoPropertyTest, SecondAccessInOnePassThrows) {
  Pifo<int> pifo("single_access", 4);
  PacketPass pass;
  ASSERT_TRUE(pifo.Push(pass, 1, 1));
  EXPECT_THROW(pifo.Push(pass, 2, 2), draconis::CheckFailure);
  EXPECT_THROW(pifo.Pop(pass), draconis::CheckFailure);
  PacketPass fresh;
  EXPECT_TRUE(pifo.Pop(fresh).got);
}

// Register-budget accounting: capacity x (payload + 8-byte rank).
TEST(PifoPropertyTest, AccountsRegisterBudget) {
  ResourceLedger ledger;
  Pifo<int> pifo("budget", 128, &ledger, /*wire_bytes_per_element=*/10);
  ASSERT_EQ(ledger.entries().size(), 1u);
  EXPECT_EQ(ledger.entries()[0].name, "budget");
  EXPECT_EQ(ledger.entries()[0].elements, 128u);
  EXPECT_EQ(ledger.total_bytes(), 128u * (10 + 8));
}

}  // namespace
}  // namespace draconis::p4
