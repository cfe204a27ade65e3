// Comparator-law and policy-behaviour tests for the RankFunction layer
// (docs/pifo.md). The laws follow *Formal Abstractions for Packet
// Scheduling*: the order a rank function induces must be total and
// transitive, and each policy must be monotone in its declared key. The
// behaviour tests drive each rank function through a real p4::Pifo and check
// the pop order a scheduler would actually see: SRPT picks the shortest
// declared service, EDF the earliest absolute deadline, and WFQ converges to
// the configured tenant weights on a synthetic two-tenant stream.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/time.h"
#include "core/rank_function.h"
#include "net/packet.h"
#include "p4/pifo.h"
#include "p4/register.h"

namespace draconis::core {
namespace {

net::TaskInfo MakeTask(uint32_t tprops, TimeNs exec_duration) {
  net::TaskInfo task;
  task.tprops = tprops;
  task.meta.exec_duration = exec_duration;
  return task;
}

uint64_t RankOf(RankFunction& fn, const net::TaskInfo& task, TimeNs now) {
  p4::PacketPass pass;
  return fn.Rank(pass, task, now);
}

// ---------------------------------------------------------------------------
// Naming and construction.

TEST(RankFunctionTest, PolicyNamesRoundTrip) {
  for (SwitchPolicy policy : AllSwitchPolicies()) {
    SwitchPolicy parsed;
    ASSERT_TRUE(SwitchPolicyFromName(SwitchPolicyName(policy), &parsed))
        << SwitchPolicyName(policy);
    EXPECT_EQ(parsed, policy);
  }
  SwitchPolicy parsed;
  EXPECT_TRUE(SwitchPolicyFromName("SRPT", &parsed));  // case-insensitive
  EXPECT_EQ(parsed, SwitchPolicy::kSrpt);
  EXPECT_FALSE(SwitchPolicyFromName("lifo", &parsed));
  EXPECT_FALSE(SwitchPolicyFromName("", &parsed));
}

TEST(RankFunctionTest, MakeRankFunctionCoversEveryPolicy) {
  RankFunctionConfig config;
  EXPECT_EQ(MakeRankFunction(SwitchPolicy::kFifo, config), nullptr);
  for (SwitchPolicy policy : AllSwitchPolicies()) {
    if (policy == SwitchPolicy::kFifo) {
      continue;
    }
    std::unique_ptr<RankFunction> fn = MakeRankFunction(policy, config);
    ASSERT_NE(fn, nullptr) << SwitchPolicyName(policy);
    EXPECT_STREQ(fn->name(), SwitchPolicyName(policy));
  }
}

TEST(RankFunctionTest, WfqRejectsDegenerateWeights) {
  EXPECT_THROW(WfqRank(std::vector<uint32_t>{}), draconis::CheckFailure);
  EXPECT_THROW(WfqRank(std::vector<uint32_t>{3, 0}), draconis::CheckFailure);
}

TEST(RankFunctionTest, WfqAccountsItsRegisters) {
  p4::ResourceLedger ledger;
  WfqRank wfq({3, 1}, &ledger);
  // One finish tag per tenant plus the virtual clock, 8 bytes each.
  ASSERT_EQ(ledger.entries().size(), 2u);
  EXPECT_EQ(ledger.total_bytes(), (2 + 1) * 8u);
}

// ---------------------------------------------------------------------------
// Comparator laws. Ranks are plain uint64_t, so totality and transitivity of
// the induced order reduce to the laws of integer comparison — but a rank
// function could still break them by being non-deterministic (two calls on
// the same task disagreeing). The law tests pin determinism plus the
// integer-order laws on ranks actually produced by each policy.

std::vector<std::unique_ptr<RankFunction>> StatelessRankFunctions() {
  // WFQ is excluded: its rank is intentionally stateful (virtual start
  // times), covered by its own monotonicity and convergence tests below.
  RankFunctionConfig config;
  std::vector<std::unique_ptr<RankFunction>> fns;
  fns.push_back(MakeRankFunction(SwitchPolicy::kStrictPriority, config));
  fns.push_back(MakeRankFunction(SwitchPolicy::kSrpt, config));
  fns.push_back(MakeRankFunction(SwitchPolicy::kEdf, config));
  return fns;
}

TEST(RankFunctionTest, ComparatorLawsHoldOnRandomTasks) {
  Rng rng(42);
  for (const std::unique_ptr<RankFunction>& fn : StatelessRankFunctions()) {
    for (int trial = 0; trial < 200; ++trial) {
      const TimeNs now = static_cast<TimeNs>(rng.NextBelow(1000000000));
      net::TaskInfo tasks[3];
      uint64_t ranks[3];
      for (int i = 0; i < 3; ++i) {
        tasks[i] = MakeTask(static_cast<uint32_t>(rng.NextBelow(1000)),
                            static_cast<TimeNs>(rng.NextBelow(FromMillis(2))));
        ranks[i] = RankOf(*fn, tasks[i], now);
        // Determinism: the same task at the same time gets the same rank.
        ASSERT_EQ(RankOf(*fn, tasks[i], now), ranks[i]) << fn->name();
      }
      // Totality: exactly one of <, >, == holds for each pair.
      for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
          ASSERT_EQ((ranks[a] < ranks[b]) + (ranks[b] < ranks[a]) +
                        (ranks[a] == ranks[b]),
                    1)
              << fn->name();
        }
      }
      // Transitivity on the sampled triple.
      if (ranks[0] <= ranks[1] && ranks[1] <= ranks[2]) {
        ASSERT_LE(ranks[0], ranks[2]) << fn->name();
      }
    }
  }
}

TEST(RankFunctionTest, StrictPriorityIsMonotoneInPriorityLevel) {
  StrictPriorityRank sp;
  uint64_t prev = 0;
  for (uint32_t level = 0; level < 8; ++level) {
    const uint64_t rank = RankOf(sp, MakeTask(level, FromMicros(100)), FromMillis(3));
    EXPECT_GE(rank, prev);
    EXPECT_EQ(rank, level);  // the level IS the rank (1 = most urgent)
    prev = rank;
  }
}

TEST(RankFunctionTest, SrptIsMonotoneInDeclaredService) {
  SrptRank srpt;
  uint64_t prev = 0;
  for (TimeNs d : {TimeNs{0}, FromMicros(1), FromMicros(100), FromMicros(500), FromMillis(5)}) {
    const uint64_t rank = RankOf(srpt, MakeTask(0, d), FromMillis(3));
    EXPECT_GE(rank, prev);
    prev = rank;
  }
  // Defensive clamp: a negative declared duration never wraps to a huge rank.
  EXPECT_EQ(RankOf(srpt, MakeTask(0, TimeNs{-1}), 0), 0u);
}

TEST(RankFunctionTest, EdfIsMonotoneInDeadlineAndTime) {
  EdfRank edf;
  // Fixed now, growing relative deadline.
  uint64_t prev = 0;
  for (uint32_t deadline_us : {0u, 10u, 200u, 5000u}) {
    const uint64_t rank = RankOf(edf, MakeTask(deadline_us, FromMicros(100)), FromMillis(1));
    EXPECT_GE(rank, prev);
    prev = rank;
  }
  // Fixed deadline, advancing clock: a later arrival with the same slack
  // ranks later (absolute deadlines, not relative).
  const uint64_t early = RankOf(edf, MakeTask(200, 0), FromMillis(1));
  const uint64_t late = RankOf(edf, MakeTask(200, 0), FromMillis(2));
  EXPECT_LT(early, late);
  EXPECT_EQ(late - early, static_cast<uint64_t>(FromMillis(1)));
}

TEST(RankFunctionTest, WfqStartTagsAreMonotonePerTenant) {
  WfqRank wfq({3, 1});
  uint64_t prev[2] = {0, 0};
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const uint32_t tenant = static_cast<uint32_t>(rng.NextBelow(2));
    const uint64_t rank =
        RankOf(wfq, MakeTask(tenant, FromMicros(50 + rng.NextBelow(200))), 0);
    ASSERT_GE(rank, prev[tenant]) << "i=" << i;
    prev[tenant] = rank;
  }
}

// ---------------------------------------------------------------------------
// Policy behaviour through a real PIFO.

// Pushes `task` through `fn` into `pifo` the way DraconisProgram's enqueue
// pass does: rank computation and admit share one PacketPass.
void PushVia(RankFunction& fn, p4::Pifo<int>& pifo, const net::TaskInfo& task, TimeNs now,
             int id) {
  p4::PacketPass pass;
  const uint64_t rank = fn.Rank(pass, task, now);
  ASSERT_TRUE(pifo.Push(pass, rank, id));
}

int PopVia(RankFunction& fn, p4::Pifo<int>& pifo) {
  p4::PacketPass pass;
  const p4::Pifo<int>::PopResult pop = pifo.Pop(pass);
  EXPECT_TRUE(pop.got);
  fn.OnDequeue(pass, pop.rank);
  return pop.got ? pop.value : -1;
}

TEST(RankFunctionTest, SrptPopsShortestDeclaredServiceFirst) {
  SrptRank srpt;
  p4::Pifo<int> pifo("srpt_pifo", 8);
  const TimeNs durations[] = {FromMicros(500), FromMicros(100), FromMicros(300),
                              FromMicros(100)};
  for (int id = 0; id < 4; ++id) {
    PushVia(srpt, pifo, MakeTask(0, durations[id]), 0, id);
  }
  // Shortest first; the two 100 us tasks tie and resolve FIFO (1 before 3).
  EXPECT_EQ(PopVia(srpt, pifo), 1);
  EXPECT_EQ(PopVia(srpt, pifo), 3);
  EXPECT_EQ(PopVia(srpt, pifo), 2);
  EXPECT_EQ(PopVia(srpt, pifo), 0);
}

TEST(RankFunctionTest, EdfPopsEarliestAbsoluteDeadlineFirst) {
  EdfRank edf;
  p4::Pifo<int> pifo("edf_pifo", 8);
  // id 0: arrives at 0 with 900 us slack -> deadline 900 us.
  // id 1: arrives at 500 us with 100 us slack -> deadline 600 us.
  // id 2: arrives at 100 us with 1000 us slack -> deadline 1100 us.
  PushVia(edf, pifo, MakeTask(900, FromMicros(50)), 0, 0);
  PushVia(edf, pifo, MakeTask(100, FromMicros(50)), FromMicros(500), 1);
  PushVia(edf, pifo, MakeTask(1000, FromMicros(50)), FromMicros(100), 2);
  EXPECT_EQ(PopVia(edf, pifo), 1);
  EXPECT_EQ(PopVia(edf, pifo), 0);
  EXPECT_EQ(PopVia(edf, pifo), 2);
}

// Two continuously-backlogged tenants with weights 3:1 and equal task costs:
// the served mix must converge to 75% / 25%.
TEST(RankFunctionTest, WfqSharesConvergeToConfiguredWeights) {
  WfqRank wfq({3, 1});
  p4::Pifo<int> pifo("wfq_pifo", 64);
  int backlog[2] = {0, 0};
  int served[2] = {0, 0};
  const int kPops = 400;
  for (int i = 0; i < kPops; ++i) {
    for (int tenant = 0; tenant < 2; ++tenant) {
      while (backlog[tenant] < 4) {
        PushVia(wfq, pifo, MakeTask(static_cast<uint32_t>(tenant), FromMicros(100)), 0,
                tenant);
        ++backlog[tenant];
      }
    }
    const int tenant = PopVia(wfq, pifo);
    ASSERT_GE(tenant, 0);
    ++served[tenant];
    --backlog[tenant];
  }
  const double share0 = static_cast<double>(served[0]) / kPops;
  EXPECT_NEAR(share0, 0.75, 0.05) << "served " << served[0] << "/" << served[1];
  // The virtual clock advanced with service (SFQ), so a late-joining tenant
  // cannot claim credit for the time it was idle.
  EXPECT_GT(wfq.cp_virtual_time(), 0u);
}

// An out-of-range tenant id clamps to the last configured weight instead of
// indexing out of bounds (mirrors the FIFO pipeline's queue-index clamp).
TEST(RankFunctionTest, WfqClampsUnknownTenants) {
  WfqRank wfq({3, 1});
  const uint64_t r = RankOf(wfq, MakeTask(/*tprops=*/17, FromMicros(100)), 0);
  EXPECT_EQ(r, 0u);  // first push starts at virtual time zero
  EXPECT_GT(wfq.cp_finish_tag(1), 0u);  // billed to the clamped (last) tenant
}

}  // namespace
}  // namespace draconis::core
