// Program-level tests: the Draconis switch program driven through a real
// pipeline + network, one scenario at a time.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/draconis_program.h"
#include "core/policy.h"
#include "core/topology.h"
#include "net/network.h"
#include "p4/pipeline.h"
#include "sim/simulator.h"

namespace draconis::core {
namespace {

class Probe : public net::Endpoint {
 public:
  void HandlePacket(net::Packet&& pkt) override { received.push_back(std::move(pkt)); }

  size_t CountOf(net::OpCode op) const {
    size_t n = 0;
    for (const auto& p : received) {
      n += p.op == op ? 1 : 0;
    }
    return n;
  }

  const net::Packet* FirstOf(net::OpCode op) const {
    for (const auto& p : received) {
      if (p.op == op) {
        return &p;
      }
    }
    return nullptr;
  }

  std::vector<net::Packet> received;
};

class DraconisProgramTest : public ::testing::Test {
 protected:
  void Build(SchedulingPolicy* policy, size_t capacity = 64, bool shadow_copy_dequeue = true) {
    DraconisConfig dc;
    dc.queue_capacity = capacity;
    dc.shadow_copy_dequeue = shadow_copy_dequeue;
    program = std::make_unique<DraconisProgram>(policy, dc);
    net::NetworkConfig nc;
    nc.max_jitter = 0;
    network = std::make_unique<net::Network>(&simulator, nc);
    pipeline = std::make_unique<p4::SwitchPipeline>(&simulator, program.get(),
                                                    p4::PipelineConfig{});
    switch_node = pipeline->AttachNetwork(network.get());
    client_node = network->Register(&client, net::HostProfile::Wire());
    executor_node = network->Register(&executor, net::HostProfile::Wire());
  }

  net::Packet Submission(std::vector<uint32_t> tids, uint32_t tprops = 0) {
    net::Packet p;
    p.op = net::OpCode::kJobSubmission;
    p.dst = switch_node;
    p.uid = 1;
    p.jid = 1;
    for (uint32_t tid : tids) {
      net::TaskInfo t;
      t.id = net::TaskId{1, 1, tid};
      t.tprops = tprops;
      t.meta.exec_duration = 100;
      p.tasks.push_back(t);
    }
    return p;
  }

  net::Packet Request(uint32_t exec_props = 0) {
    net::Packet p;
    p.op = net::OpCode::kTaskRequest;
    p.dst = switch_node;
    p.exec_props = exec_props;
    p.rtrv_prio = 1;
    return p;
  }

  sim::Simulator simulator;
  std::unique_ptr<DraconisProgram> program;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<p4::SwitchPipeline> pipeline;
  Probe client;
  Probe executor;
  net::NodeId switch_node = net::kInvalidNode;
  net::NodeId client_node = net::kInvalidNode;
  net::NodeId executor_node = net::kInvalidNode;
};

TEST_F(DraconisProgramTest, SubmissionIsAcked) {
  FcfsPolicy fcfs;
  Build(&fcfs);
  network->Send(client_node, Submission({0}));
  simulator.RunAll();
  EXPECT_EQ(client.CountOf(net::OpCode::kJobAck), 1u);
  EXPECT_EQ(program->counters().tasks_enqueued, 1u);
}

TEST_F(DraconisProgramTest, RequestOnEmptyQueueGetsNoOp) {
  FcfsPolicy fcfs;
  Build(&fcfs);
  network->Send(executor_node, Request());
  simulator.RunAll();
  EXPECT_EQ(executor.CountOf(net::OpCode::kNoOpTask), 1u);
}

TEST_F(DraconisProgramTest, SubmittedTaskIsAssignedToRequester) {
  FcfsPolicy fcfs;
  Build(&fcfs);
  network->Send(client_node, Submission({7}));
  simulator.RunUntil(FromMicros(10));
  network->Send(executor_node, Request());
  simulator.RunAll();
  const net::Packet* assignment = executor.FirstOf(net::OpCode::kTaskAssignment);
  ASSERT_NE(assignment, nullptr);
  EXPECT_EQ(assignment->tasks.at(0).id.tid, 7u);
  EXPECT_EQ(assignment->client_addr, client_node);
  EXPECT_GE(assignment->tasks.at(0).meta.enqueue_time, 0);
}

TEST_F(DraconisProgramTest, FcfsOrderAcrossSubmissions) {
  FcfsPolicy fcfs;
  Build(&fcfs);
  for (uint32_t i = 0; i < 3; ++i) {
    network->Send(client_node, Submission({i}));
    simulator.RunUntil(simulator.Now() + FromMicros(5));
  }
  for (int i = 0; i < 3; ++i) {
    network->Send(executor_node, Request());
    simulator.RunUntil(simulator.Now() + FromMicros(5));
  }
  simulator.RunAll();
  std::vector<uint32_t> order;
  for (const auto& p : executor.received) {
    if (p.op == net::OpCode::kTaskAssignment) {
      order.push_back(p.tasks.at(0).id.tid);
    }
  }
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2}));
}

TEST_F(DraconisProgramTest, MultiTaskSubmissionRecirculatesOncePerExtraTask) {
  FcfsPolicy fcfs;
  Build(&fcfs);
  network->Send(client_node, Submission({0, 1, 2, 3}));
  simulator.RunAll();
  EXPECT_EQ(program->counters().tasks_enqueued, 4u);
  EXPECT_EQ(pipeline->counters().recirculations, 3u);
  EXPECT_EQ(client.CountOf(net::OpCode::kJobAck), 1u);  // one ack per packet
}

TEST_F(DraconisProgramTest, FullQueueSendsErrorWithRemainingTasks) {
  FcfsPolicy fcfs;
  Build(&fcfs, /*capacity=*/2);
  network->Send(client_node, Submission({0, 1, 2, 3}));
  simulator.RunAll();
  EXPECT_EQ(program->counters().tasks_enqueued, 2u);
  const net::Packet* error = client.FirstOf(net::OpCode::kErrorQueueFull);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->tasks.size(), 2u);  // tasks 2 and 3 bounced
  EXPECT_EQ(error->tasks[0].id.tid, 2u);
  // The add-pointer repair must have healed the queue.
  EXPECT_FALSE(program->queue(0).cp_add_repair_flag());
  EXPECT_EQ(program->queue(0).cp_add_ptr(), 2u);
}

TEST_F(DraconisProgramTest, EmptyDequeueMistakeIsRepairedByNextSubmission) {
  FcfsPolicy fcfs;
  // Textbook dequeue mode: empty polls over-run the pointer on purpose.
  Build(&fcfs, 64, /*shadow_copy_dequeue=*/false);
  // Three requests against an empty queue over-run the retrieve pointer.
  for (int i = 0; i < 3; ++i) {
    network->Send(executor_node, Request());
  }
  simulator.RunAll();
  EXPECT_EQ(executor.CountOf(net::OpCode::kNoOpTask), 3u);
  EXPECT_EQ(program->queue(0).cp_retrieve_ptr(), 3u);

  // The next submission detects and repairs; the task is then retrievable.
  network->Send(client_node, Submission({9}));
  simulator.RunAll();
  EXPECT_EQ(program->counters().retrieve_repairs, 1u);
  EXPECT_FALSE(program->queue(0).cp_retrieve_repair_flag());

  network->Send(executor_node, Request());
  simulator.RunAll();
  const net::Packet* assignment = executor.FirstOf(net::OpCode::kTaskAssignment);
  ASSERT_NE(assignment, nullptr);
  EXPECT_EQ(assignment->tasks.at(0).id.tid, 9u);
}

TEST_F(DraconisProgramTest, CompletionForwardsNoticeAndPiggybacksRequest) {
  FcfsPolicy fcfs;
  Build(&fcfs);
  network->Send(client_node, Submission({5}));
  simulator.RunUntil(FromMicros(10));

  net::Packet completion;
  completion.op = net::OpCode::kTaskCompletion;
  completion.dst = switch_node;
  net::TaskInfo done;
  done.id = net::TaskId{1, 0, 0};
  completion.tasks = {done};
  completion.client_addr = client_node;
  completion.rtrv_prio = 1;
  network->Send(executor_node, std::move(completion));
  simulator.RunAll();

  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 1u);
  const net::Packet* assignment = executor.FirstOf(net::OpCode::kTaskAssignment);
  ASSERT_NE(assignment, nullptr);
  EXPECT_EQ(assignment->tasks.at(0).id.tid, 5u);
}

TEST_F(DraconisProgramTest, NonSchedulerTrafficIsForwarded) {
  FcfsPolicy fcfs;
  Build(&fcfs);
  // Hand a transit packet straight to the pipeline (its final destination is
  // the executor): Draconis must behave like a regular switch (§4.1).
  net::Packet other;
  other.op = net::OpCode::kOther;
  other.src = client_node;
  other.dst = executor_node;
  pipeline->HandlePacket(std::move(other));
  simulator.RunAll();
  EXPECT_EQ(executor.CountOf(net::OpCode::kOther), 1u);
}

TEST_F(DraconisProgramTest, SelfAddressedStrayTrafficIsDroppedNotLooped) {
  FcfsPolicy fcfs;
  Build(&fcfs);
  net::Packet other;
  other.op = net::OpCode::kOther;
  other.dst = switch_node;
  network->Send(client_node, std::move(other));
  simulator.RunAll();  // must terminate
  EXPECT_EQ(pipeline->counters().program_drops.at("info_unroutable"), 1u);
}

// --- Priority policy (§6.1) -------------------------------------------------

TEST_F(DraconisProgramTest, PriorityTasksRetrievedHighestFirst) {
  PriorityPolicy prio(4);
  Build(&prio);
  network->Send(client_node, Submission({0}, /*tprops=*/3));  // level 3
  simulator.RunUntil(FromMicros(10));
  network->Send(client_node, Submission({1}, /*tprops=*/1));  // level 1
  simulator.RunUntil(FromMicros(20));

  network->Send(executor_node, Request());
  simulator.RunUntil(FromMicros(40));
  network->Send(executor_node, Request());
  simulator.RunAll();

  std::vector<uint32_t> order;
  for (const auto& p : executor.received) {
    if (p.op == net::OpCode::kTaskAssignment) {
      order.push_back(p.tasks.at(0).id.tid);
    }
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // priority 1 first
  EXPECT_EQ(order[1], 0u);
}

TEST_F(DraconisProgramTest, PriorityProbingRecirculatesThroughLevels) {
  PriorityPolicy prio(4);
  Build(&prio);
  network->Send(client_node, Submission({0}, /*tprops=*/4));  // lowest level
  simulator.RunUntil(FromMicros(10));
  network->Send(executor_node, Request());
  simulator.RunAll();
  // Levels 1..3 probed empty -> 3 recirculations before level 4 hits.
  EXPECT_EQ(program->counters().priority_probes, 3u);
  EXPECT_EQ(executor.CountOf(net::OpCode::kTaskAssignment), 1u);
}

TEST_F(DraconisProgramTest, AllLevelsEmptyYieldsNoOpAfterFullProbe) {
  PriorityPolicy prio(4);
  Build(&prio);
  network->Send(executor_node, Request());
  simulator.RunAll();
  EXPECT_EQ(executor.CountOf(net::OpCode::kNoOpTask), 1u);
  EXPECT_EQ(program->counters().priority_probes, 3u);
}

// --- Resource policy (§5.2) with task swapping -------------------------------

TEST_F(DraconisProgramTest, ResourceMismatchSwapsToMatchingTask) {
  ResourcePolicy resource;
  Build(&resource);
  network->Send(client_node, Submission({0}, /*tprops=*/0b100));  // needs C
  simulator.RunUntil(FromMicros(10));
  network->Send(client_node, Submission({1}, /*tprops=*/0b001));  // needs A
  simulator.RunUntil(FromMicros(20));

  // Executor offers only A: must skip task 0 and get task 1.
  network->Send(executor_node, Request(/*exec_props=*/0b001));
  simulator.RunAll();

  const net::Packet* assignment = executor.FirstOf(net::OpCode::kTaskAssignment);
  ASSERT_NE(assignment, nullptr);
  EXPECT_EQ(assignment->tasks.at(0).id.tid, 1u);
  EXPECT_GE(program->counters().swap_walks_started, 1u);

  // Task 0 is still queued for a capable executor.
  network->Send(executor_node, Request(/*exec_props=*/0b111));
  simulator.RunAll();
  EXPECT_EQ(executor.CountOf(net::OpCode::kTaskAssignment), 2u);
}

TEST_F(DraconisProgramTest, NoMatchingTaskRequeuesAndSendsNoOp) {
  ResourcePolicy resource;
  Build(&resource);
  network->Send(client_node, Submission({0}, /*tprops=*/0b100));
  simulator.RunUntil(FromMicros(10));

  network->Send(executor_node, Request(/*exec_props=*/0b001));  // can't run it
  simulator.RunAll();

  EXPECT_EQ(executor.CountOf(net::OpCode::kNoOpTask), 1u);
  EXPECT_EQ(executor.CountOf(net::OpCode::kTaskAssignment), 0u);
  EXPECT_EQ(program->counters().swap_requeues, 1u);
  // Task conserved: still exactly one retrievable task in the queue.
  EXPECT_EQ(program->queue(0).cp_occupancy(), 1u);

  network->Send(executor_node, Request(/*exec_props=*/0b100));
  simulator.RunAll();
  EXPECT_EQ(executor.CountOf(net::OpCode::kTaskAssignment), 1u);
}

TEST_F(DraconisProgramTest, SwapWalkExaminesDeepQueue) {
  ResourcePolicy resource;
  Build(&resource);
  // Five C-tasks in front of one A-task.
  for (uint32_t i = 0; i < 5; ++i) {
    network->Send(client_node, Submission({i}, /*tprops=*/0b100));
    simulator.RunUntil(simulator.Now() + FromMicros(5));
  }
  network->Send(client_node, Submission({5}, /*tprops=*/0b001));
  simulator.RunUntil(simulator.Now() + FromMicros(5));

  network->Send(executor_node, Request(/*exec_props=*/0b001));
  simulator.RunAll();
  const net::Packet* assignment = executor.FirstOf(net::OpCode::kTaskAssignment);
  ASSERT_NE(assignment, nullptr);
  EXPECT_EQ(assignment->tasks.at(0).id.tid, 5u);
  // All six tasks conserved (five still queued).
  EXPECT_EQ(program->queue(0).cp_occupancy(), 5u);
}

// --- Locality policy (§5.3) ---------------------------------------------------

class LocalityProgramTest : public DraconisProgramTest {
 protected:
  LocalityProgramTest() : topology(Topology::Uniform(6, 3)) {}
  Topology topology;
};

TEST_F(LocalityProgramTest, DataLocalExecutorGetsTaskImmediately) {
  LocalityPolicy policy(&topology, LocalityPolicy::Limits{3, 9});
  Build(&policy);
  network->Send(client_node, Submission({0}, /*tprops=*/2));  // data on node 2
  simulator.RunUntil(FromMicros(10));
  network->Send(executor_node, Request(/*exec_props=*/2));  // executor on node 2
  simulator.RunAll();
  EXPECT_EQ(executor.CountOf(net::OpCode::kTaskAssignment), 1u);
  EXPECT_EQ(program->counters().swap_walks_started, 0u);
}

TEST_F(LocalityProgramTest, RemoteExecutorSkipsUntilGlobalLimit) {
  LocalityPolicy policy(&topology, LocalityPolicy::Limits{2, 4});
  Build(&policy);
  network->Send(client_node, Submission({0}, /*tprops=*/2));
  simulator.RunUntil(FromMicros(10));

  // Node 1 is in a different rack than node 2 (racks: 0->0, 1->1, 2->2,
  // 3->0, ...). Each failed examination bumps the skip counter; after the
  // global limit the task runs anywhere.
  int assignments = 0;
  for (int attempt = 0; attempt < 6 && assignments == 0; ++attempt) {
    network->Send(executor_node, Request(/*exec_props=*/1));
    simulator.RunUntil(simulator.Now() + FromMicros(20));
    assignments = static_cast<int>(executor.CountOf(net::OpCode::kTaskAssignment));
  }
  EXPECT_EQ(assignments, 1);
  // It took several no-ops before the task was released.
  EXPECT_GT(executor.CountOf(net::OpCode::kNoOpTask), 0u);
}

TEST_F(LocalityProgramTest, RackLocalExecutorAcceptedAfterRackLimit) {
  LocalityPolicy policy(&topology, LocalityPolicy::Limits{1, 9});
  Build(&policy);
  network->Send(client_node, Submission({0}, /*tprops=*/2));  // data on node 2, rack 2
  simulator.RunUntil(FromMicros(10));

  // Node 5 is on rack 2 as well (5 % 3 == 2): after one skip it qualifies.
  int assignments = 0;
  for (int attempt = 0; attempt < 4 && assignments == 0; ++attempt) {
    network->Send(executor_node, Request(/*exec_props=*/5));
    simulator.RunUntil(simulator.Now() + FromMicros(20));
    assignments = static_cast<int>(executor.CountOf(net::OpCode::kTaskAssignment));
  }
  EXPECT_EQ(assignments, 1);
  const net::Packet* assignment = executor.FirstOf(net::OpCode::kTaskAssignment);
  ASSERT_NE(assignment, nullptr);
  EXPECT_EQ(assignment->tasks.at(0).meta.placement, net::TaskInfo::Placement::kSameRack);
}

}  // namespace
}  // namespace draconis::core
