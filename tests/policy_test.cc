#include <gtest/gtest.h>

#include "common/check.h"
#include "core/policy.h"
#include "core/topology.h"

namespace draconis::core {
namespace {

QueueEntry Entry(uint32_t tprops, uint32_t skip = 0) {
  QueueEntry e;
  e.task.id = net::TaskId{1, 1, 0};
  e.task.tprops = tprops;
  e.skip_counter = skip;
  e.valid = true;
  return e;
}

// --- Topology ---------------------------------------------------------------

TEST(TopologyTest, UniformRoundRobin) {
  Topology topo = Topology::Uniform(9, 3);
  EXPECT_EQ(topo.num_nodes(), 9u);
  EXPECT_EQ(topo.num_racks(), 3u);
  EXPECT_EQ(topo.RackOf(0), 0u);
  EXPECT_EQ(topo.RackOf(4), 1u);
  EXPECT_EQ(topo.RackOf(8), 2u);
}

TEST(TopologyTest, SameRack) {
  Topology topo = Topology::Uniform(9, 3);
  EXPECT_TRUE(topo.SameRack(0, 3));
  EXPECT_TRUE(topo.SameRack(2, 8));
  EXPECT_FALSE(topo.SameRack(0, 1));
}

TEST(TopologyTest, UnknownNodeThrows) {
  Topology topo = Topology::Uniform(4, 2);
  EXPECT_THROW(topo.RackOf(4), draconis::CheckFailure);
}

TEST(TopologyTest, CustomMapping) {
  Topology topo({0, 0, 1});
  EXPECT_EQ(topo.num_racks(), 2u);
  EXPECT_TRUE(topo.SameRack(0, 1));
  EXPECT_FALSE(topo.SameRack(1, 2));
}

// --- FCFS -------------------------------------------------------------------

TEST(FcfsPolicyTest, SingleQueueAssignsEverything) {
  FcfsPolicy policy;
  EXPECT_EQ(policy.num_queues(), 1u);
  EXPECT_EQ(policy.max_swaps(), 0u);
  QueueEntry e = Entry(1234);
  EXPECT_TRUE(policy.ShouldAssign(e, 0));
  EXPECT_EQ(e.skip_counter, 0u);
}

// --- Priority ---------------------------------------------------------------

TEST(PriorityPolicyTest, QueuePerLevel) {
  PriorityPolicy policy(4);
  EXPECT_EQ(policy.num_queues(), 4u);
  EXPECT_EQ(policy.QueueForTask(Entry(1).task), 0u);
  EXPECT_EQ(policy.QueueForTask(Entry(4).task), 3u);
}

TEST(PriorityPolicyTest, ClampsMalformedLevels) {
  PriorityPolicy policy(4);
  EXPECT_EQ(policy.QueueForTask(Entry(0).task), 0u);    // below range
  EXPECT_EQ(policy.QueueForTask(Entry(99).task), 3u);   // above range
}

TEST(PriorityPolicyTest, AlwaysAssigns) {
  PriorityPolicy policy(4);
  QueueEntry e = Entry(2);
  EXPECT_TRUE(policy.ShouldAssign(e, 0));
}

TEST(PriorityPolicyTest, NeedsAtLeastOneLevel) {
  EXPECT_THROW(PriorityPolicy(0), draconis::CheckFailure);
}

// --- Resource ---------------------------------------------------------------

TEST(ResourcePolicyTest, SubsetMatch) {
  ResourcePolicy policy;
  QueueEntry needs_ab = Entry(0b011);
  EXPECT_TRUE(policy.ShouldAssign(needs_ab, 0b111));   // superset ok
  EXPECT_TRUE(policy.ShouldAssign(needs_ab, 0b011));   // exact ok
  EXPECT_FALSE(policy.ShouldAssign(needs_ab, 0b001));  // missing B
  EXPECT_FALSE(policy.ShouldAssign(needs_ab, 0b100));  // disjoint
}

TEST(ResourcePolicyTest, NoRequirementsRunAnywhere) {
  ResourcePolicy policy;
  QueueEntry plain = Entry(0);
  EXPECT_TRUE(policy.ShouldAssign(plain, 0));
}

TEST(ResourcePolicyTest, SkipCounterGrowsOnMismatchOnly) {
  ResourcePolicy policy;
  QueueEntry e = Entry(0b100);
  policy.ShouldAssign(e, 0b001);
  policy.ShouldAssign(e, 0b010);
  EXPECT_EQ(e.skip_counter, 2u);
  policy.ShouldAssign(e, 0b100);
  EXPECT_EQ(e.skip_counter, 2u);  // match does not bump the counter
}

// --- Locality ---------------------------------------------------------------

class LocalityPolicyTest : public ::testing::Test {
 protected:
  LocalityPolicyTest() : topo(Topology::Uniform(6, 3)), policy(&topo, {3, 9}) {}
  Topology topo;
  LocalityPolicy policy;
};

TEST_F(LocalityPolicyTest, DataLocalAssignsImmediately) {
  QueueEntry e = Entry(/*data node=*/2);
  EXPECT_TRUE(policy.ShouldAssign(e, /*exec node=*/2));
  EXPECT_EQ(e.skip_counter, 0u);
  EXPECT_EQ(e.task.meta.placement, net::TaskInfo::Placement::kLocal);
}

TEST_F(LocalityPolicyTest, NodeOnlyPhaseRejectsEveryoneElse) {
  QueueEntry e = Entry(2);
  // Skips 1..3 stay node-local; even a same-rack executor (node 5, rack 2)
  // is rejected.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(policy.ShouldAssign(e, 5));
  }
  EXPECT_EQ(e.skip_counter, 3u);
}

TEST_F(LocalityPolicyTest, RackPhaseAcceptsSameRack) {
  QueueEntry e = Entry(2, /*skip=*/3);  // past the node-only phase
  EXPECT_TRUE(policy.ShouldAssign(e, 5));  // node 5 shares rack 2
  EXPECT_EQ(e.task.meta.placement, net::TaskInfo::Placement::kSameRack);
}

TEST_F(LocalityPolicyTest, RackPhaseRejectsOtherRacks) {
  QueueEntry e = Entry(2, /*skip=*/3);
  EXPECT_FALSE(policy.ShouldAssign(e, 1));  // node 1 is rack 1
  EXPECT_EQ(e.skip_counter, 4u);
}

TEST_F(LocalityPolicyTest, GlobalPhaseAcceptsAnyone) {
  QueueEntry e = Entry(2, /*skip=*/9);  // past the global limit after ++
  EXPECT_TRUE(policy.ShouldAssign(e, 1));
  EXPECT_EQ(e.task.meta.placement, net::TaskInfo::Placement::kRemote);
}

TEST_F(LocalityPolicyTest, EscalationLadderEndsWithinGlobalLimit) {
  // A task repeatedly offered to a wrong-rack executor is released after
  // global_start_limit examinations.
  QueueEntry e = Entry(2);
  int examinations = 0;
  while (!policy.ShouldAssign(e, 1)) {
    ++examinations;
    ASSERT_LT(examinations, 20);
  }
  EXPECT_EQ(examinations, 9);
}

TEST_F(LocalityPolicyTest, DataLocalAlwaysWinsEvenLate) {
  QueueEntry e = Entry(2, /*skip=*/7);
  EXPECT_TRUE(policy.ShouldAssign(e, 2));
  EXPECT_EQ(e.task.meta.placement, net::TaskInfo::Placement::kLocal);
}

TEST_F(LocalityPolicyTest, InvalidLimitsRejected) {
  EXPECT_THROW(LocalityPolicy(&topo, {9, 3}), draconis::CheckFailure);
}

TEST(ClassifyPlacementTest, AllThreeClasses) {
  Topology topo = Topology::Uniform(6, 3);
  EXPECT_EQ(ClassifyPlacement(topo, 2, 2), net::TaskInfo::Placement::kLocal);
  EXPECT_EQ(ClassifyPlacement(topo, 2, 5), net::TaskInfo::Placement::kSameRack);
  EXPECT_EQ(ClassifyPlacement(topo, 2, 1), net::TaskInfo::Placement::kRemote);
}

}  // namespace
}  // namespace draconis::core
