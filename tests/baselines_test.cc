// Unit tests for the baseline schedulers: R2P2's credit-bounded JBSQ,
// RackSched's power-of-two inter-node layer, Sparrow's batch sampling + late
// binding, and the central Draconis-protocol servers.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/central_server.h"
#include "baselines/malcolm.h"
#include "baselines/r2p2.h"
#include "baselines/racksched.h"
#include "baselines/sparrow.h"
#include "cluster/metrics.h"
#include "cluster/testbed.h"
#include "net/network.h"
#include "p4/pipeline.h"
#include "sim/simulator.h"

namespace draconis::baselines {
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
  std::vector<net::Packet> received;
};

net::Packet Task(uint32_t tid, TimeNs duration = FromMicros(100)) {
  net::Packet p;
  p.op = net::OpCode::kJobSubmission;
  net::TaskInfo t;
  t.id = net::TaskId{1, 1, tid};
  t.meta.exec_duration = duration;
  t.meta.first_submit_time = 0;
  p.tasks = {t};
  return p;
}

// --- R2P2 --------------------------------------------------------------------

class R2P2Test : public ::testing::Test {
 protected:
  void Build(size_t executors, uint32_t k, TimeNs staleness = TimeNs{250}) {
    program = std::make_unique<R2P2Program>(executors, k, staleness);
    pipeline = std::make_unique<p4::SwitchPipeline>(testbed, program.get(),
                                                    p4::PipelineConfig{});
    switch_node = pipeline->node_id();
    worker = std::make_unique<R2P2Worker>(&testbed, executors, 0, switch_node);
    for (size_t i = 0; i < executors; ++i) {
      program->BindTarget(i, worker->node_id());
    }
    client_node = network.Register(&client, net::HostProfile::Wire());
  }

  void Submit(net::Packet p) {
    p.dst = switch_node;
    network.Send(client_node, std::move(p));
  }

  cluster::Testbed testbed{cluster::TestbedConfig{}};
  sim::Simulator& simulator = testbed.simulator();
  net::Network& network = testbed.network();
  std::unique_ptr<R2P2Program> program;
  std::unique_ptr<p4::SwitchPipeline> pipeline;
  std::unique_ptr<R2P2Worker> worker;
  Probe client;
  net::NodeId switch_node = net::kInvalidNode;
  net::NodeId client_node = net::kInvalidNode;
};

TEST_F(R2P2Test, CreditsStartAtKPerExecutor) {
  Build(4, 3);
  EXPECT_EQ(program->cp_credits(), 12u);
}

TEST_F(R2P2Test, TaskConsumesCreditAndRunsToCompletion) {
  Build(2, 3);
  Submit(Task(0));
  simulator.RunUntil(FromMicros(20));
  EXPECT_EQ(program->cp_credits(), 5u);
  EXPECT_EQ(program->counters().tasks_pushed, 1u);
  simulator.RunAll();
  EXPECT_EQ(program->cp_credits(), 6u);  // credit returned on completion
  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 1u);
}

TEST_F(R2P2Test, BoundIsEnforcedExactly) {
  Build(2, 2);  // 4 slots total
  for (uint32_t i = 0; i < 4; ++i) {
    Submit(Task(i, FromMillis(10)));
  }
  simulator.RunUntil(FromMicros(50));
  EXPECT_EQ(program->cp_credits(), 0u);
  EXPECT_EQ(program->cp_outstanding(0), 2u);
  EXPECT_EQ(program->cp_outstanding(1), 2u);
}

TEST_F(R2P2Test, OverflowSpinsUntilACreditFrees) {
  Build(1, 1);
  Submit(Task(0, FromMicros(200)));
  simulator.RunUntil(FromMicros(20));
  Submit(Task(1, FromMicros(200)));
  simulator.RunUntil(FromMicros(100));
  // Task 1 is circling the loopback port.
  EXPECT_GT(program->counters().credit_wait_recirculations, 0u);
  EXPECT_EQ(program->counters().tasks_pushed, 1u);
  simulator.RunAll();
  // Once the first task completed, the spinner claimed the freed credit.
  EXPECT_EQ(program->counters().tasks_pushed, 2u);
  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 2u);
}

TEST_F(R2P2Test, HerdingWithinStalenessWindowPilesOntoOneExecutor) {
  Build(4, 3, /*staleness=*/FromMicros(5));
  // Two tasks in the same instant: the second sees the stale snapshot and
  // joins the same "shortest" executor even though three others are idle.
  Submit(Task(0, FromMillis(1)));
  Submit(Task(1, FromMillis(1)));
  simulator.RunUntil(FromMicros(50));
  uint32_t loaded = 0;
  uint32_t busy_executors = 0;
  for (size_t i = 0; i < 4; ++i) {
    if (program->cp_outstanding(i) > 0) {
      ++busy_executors;
      loaded = std::max(loaded, program->cp_outstanding(i));
    }
  }
  EXPECT_EQ(busy_executors, 1u);
  EXPECT_EQ(loaded, 2u);
}

TEST_F(R2P2Test, MultiTaskPacketIsRejected) {
  Build(2, 3);
  net::Packet p = Task(0);
  p.tasks.push_back(p.tasks[0]);
  Submit(std::move(p));
  EXPECT_THROW(simulator.RunAll(), draconis::CheckFailure);
}

// --- RackSched -----------------------------------------------------------------

class RackSchedTest : public ::testing::Test {
 protected:
  void Build(size_t nodes, size_t executors_per_node,
             IntraNodePolicy policy = IntraNodePolicy::kFcfs) {
    program = std::make_unique<RackSchedProgram>(nodes, /*seed=*/7);
    pipeline = std::make_unique<p4::SwitchPipeline>(testbed, program.get(),
                                                    p4::PipelineConfig{});
    switch_node = pipeline->node_id();
    for (size_t n = 0; n < nodes; ++n) {
      workers.push_back(std::make_unique<RackSchedWorker>(
          &testbed, executors_per_node, static_cast<uint32_t>(n), switch_node, policy));
      program->BindTarget(n, workers.back()->node_id());
    }
    client_node = network.Register(&client, net::HostProfile::Wire());
  }

  void Submit(net::Packet p) {
    p.dst = switch_node;
    network.Send(client_node, std::move(p));
  }

  cluster::Testbed testbed{cluster::TestbedConfig{}};
  sim::Simulator& simulator = testbed.simulator();
  net::Network& network = testbed.network();
  cluster::MetricsHub* metrics = testbed.metrics();
  std::unique_ptr<RackSchedProgram> program;
  std::unique_ptr<p4::SwitchPipeline> pipeline;
  std::vector<std::unique_ptr<RackSchedWorker>> workers;
  Probe client;
  net::NodeId switch_node = net::kInvalidNode;
  net::NodeId client_node = net::kInvalidNode;
};

TEST_F(RackSchedTest, TasksCompleteAndCountersBalance) {
  Build(4, 2);
  for (uint32_t i = 0; i < 8; ++i) {
    Submit(Task(i));
  }
  simulator.RunAll();
  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 8u);
  EXPECT_EQ(program->counters().tasks_pushed, 8u);
  EXPECT_EQ(program->counters().credits, 8u);
  for (size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(program->cp_outstanding(n), 0u);
  }
}

TEST_F(RackSchedTest, PowerOfTwoSpreadsLoadAcrossNodes) {
  Build(4, 2);
  for (uint32_t i = 0; i < 64; ++i) {
    Submit(Task(i, FromMillis(5)));
  }
  simulator.RunUntil(FromMillis(1));
  // All 64 queued somewhere; the po2 sampler with live counters must not put
  // everything on one node.
  uint32_t max_len = 0;
  uint32_t total = 0;
  for (size_t n = 0; n < 4; ++n) {
    max_len = std::max(max_len, program->cp_outstanding(n));
    total += program->cp_outstanding(n);
  }
  EXPECT_EQ(total, 64u);
  EXPECT_LT(max_len, 2u * 64 / 4 + 2);
}

TEST_F(RackSchedTest, CreditWithNothingOutstandingFailsACheck) {
  // Credits are conserved: one that frees nothing is a bug, not a no-op.
  Build(2, 1);
  net::Packet credit;
  credit.op = net::OpCode::kCredit;
  credit.exec_props = 0;
  Submit(std::move(credit));
  EXPECT_THROW(simulator.RunAll(), draconis::CheckFailure);
}

class RackSchedPsTest : public RackSchedTest {
 protected:
  void Build(size_t nodes, size_t executors_per_node) {
    RackSchedTest::Build(nodes, executors_per_node, IntraNodePolicy::kProcessorSharing);
  }
};

TEST_F(RackSchedPsTest, SingleTaskRunsAtFullSpeed) {
  Build(2, 2);
  Submit(Task(0, FromMicros(100)));
  simulator.RunAll();
  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 1u);
  // Completed in roughly dispatch (3.5us) + pickup + 100us + network.
  EXPECT_LT(simulator.Now(), FromMicros(130));
}

TEST_F(RackSchedPsTest, SharingSlowsConcurrentTasksFairly) {
  // 1 core, two concurrent 100 us tasks: under PS both run at half speed and
  // finish around 200 us of service time each (not 100/200 as under FCFS).
  Build(2, 1);
  // Force both onto node 0 by saturating node 1 with a long task first.
  Submit(Task(0, FromMillis(50)));
  Submit(Task(1, FromMillis(50)));
  simulator.RunUntil(FromMicros(20));
  Submit(Task(2, FromMicros(100)));
  Submit(Task(3, FromMicros(100)));
  simulator.RunUntil(FromMillis(1));
  // Tasks 2 and 3 shared a core with one 50ms giant on whichever node they
  // landed: at 1/3 (or 1/2) speed each they still finish within a
  // millisecond — FCFS would have parked them for 50 ms.
  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 2u);
}

TEST_F(RackSchedPsTest, PreemptionRescuesShortTasksBehindLongOnes) {
  // The heavy-tail scenario PS exists for: a long task occupies the node; a
  // short task arriving later must not wait for it.
  Build(2, 1);
  Submit(Task(0, FromMillis(10)));  // long
  Submit(Task(1, FromMillis(10)));  // long (covers the other node)
  simulator.RunUntil(FromMicros(50));
  Submit(Task(2, FromMicros(50)));  // short, lands behind a long task
  simulator.RunUntil(FromMillis(2));
  // Short task done in ~2x its service time (half speed), not 10 ms.
  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 1u);
  simulator.RunAll();
  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 3u);
}

TEST_F(RackSchedTest, DispatchOverheadDelaysExecution) {
  Build(2, 1);
  Submit(Task(0, FromMicros(100)));
  simulator.RunAll();
  ASSERT_EQ(metrics->sched_delay().count(), 1u);
  // Delay includes the intra-node dispatcher's ~3.5 us.
  EXPECT_GT(metrics->sched_delay().max(), FromMicros(3));
}

// --- RackSched-EDF ---------------------------------------------------------------

// Drives a single EDF worker directly with kTaskAssignment packets (the
// inter-node po2 layer is covered above; its randomness would obscure the
// queue-order assertions here).
class RackSchedEdfTest : public ::testing::Test {
 protected:
  void Build() {
    scheduler_node = network.Register(&scheduler_probe, net::HostProfile::Wire());
    worker = std::make_unique<RackSchedWorker>(&testbed, 1, 0, scheduler_node,
                                               IntraNodePolicy::kEdf);
    client_node = network.Register(&client, net::HostProfile::Wire());
  }

  void Assign(uint32_t tid, uint32_t deadline_us, TimeNs duration,
              TimeNs enqueue_time = -1) {
    net::Packet p = Task(tid, duration);
    p.op = net::OpCode::kTaskAssignment;
    p.tasks[0].tprops = deadline_us;  // the deadline tagger stores relative us here
    p.tasks[0].meta.enqueue_time = enqueue_time >= 0 ? enqueue_time : simulator.Now();
    p.client_addr = client_node;
    p.dst = worker->node_id();
    network.Send(client_node, std::move(p));
  }

  std::vector<uint32_t> CompletionOrder() const {
    std::vector<uint32_t> order;
    for (const net::Packet& p : client.received) {
      if (p.op == net::OpCode::kCompletionNotice) {
        order.push_back(p.tasks.at(0).id.tid);
      }
    }
    return order;
  }

  cluster::Testbed testbed{cluster::TestbedConfig{}};
  sim::Simulator& simulator = testbed.simulator();
  net::Network& network = testbed.network();
  std::unique_ptr<RackSchedWorker> worker;
  Probe client;
  Probe scheduler_probe;
  net::NodeId scheduler_node = net::kInvalidNode;
  net::NodeId client_node = net::kInvalidNode;
};

TEST_F(RackSchedEdfTest, DispatchesEarliestDeadlineFirst) {
  Build();
  // Occupy the single core, then queue three tagged tasks whose FCFS order
  // (1, 2, 3) differs from their deadline order (2, 3, 1).
  Assign(0, 0, FromMillis(5));
  simulator.RunUntil(FromMicros(100));
  Assign(1, 5000, FromMicros(100));
  Assign(2, 100, FromMicros(100));
  Assign(3, 1000, FromMicros(100));
  simulator.RunAll();
  EXPECT_EQ(CompletionOrder(), (std::vector<uint32_t>{0, 2, 3, 1}));
}

TEST_F(RackSchedEdfTest, UntaggedTasksFallBackToFcfsOrder) {
  Build();
  Assign(0, 0, FromMillis(2));
  simulator.RunUntil(FromMicros(100));
  // tprops = 0 on every queued task: equal relative deadlines order by
  // enqueue time, so an untagged stream runs cFCFS. The fabric jitters
  // arrival order, so pin the switch-stamped enqueue times explicitly.
  Assign(1, 0, FromMicros(100), FromMicros(100));
  Assign(2, 0, FromMicros(100), FromMicros(101));
  Assign(3, 0, FromMicros(100), FromMicros(102));
  simulator.RunAll();
  EXPECT_EQ(CompletionOrder(), (std::vector<uint32_t>{0, 1, 2, 3}));
}

// --- Malcolm --------------------------------------------------------------------

TEST(LatencyHistogramTest, ExpectedTracksTheRecordedScale) {
  LatencyHistogram fast;
  LatencyHistogram slow;
  for (int i = 0; i < 100; ++i) {
    fast.Record(1000);     // ~1 us sojourns
    slow.Record(1000000);  // ~1 ms sojourns
  }
  EXPECT_EQ(fast.count(), 100u);
  EXPECT_GT(fast.ExpectedNs(), 0.0);
  EXPECT_GT(slow.ExpectedNs(), 100.0 * fast.ExpectedNs());
  EXPECT_EQ(LatencyHistogram().ExpectedNs(), 0.0);
}

class MalcolmTest : public ::testing::Test {
 protected:
  void Build(size_t nodes, size_t executors_per_node) {
    program = std::make_unique<MalcolmProgram>(nodes);
    pipeline = std::make_unique<p4::SwitchPipeline>(testbed, program.get(),
                                                    p4::PipelineConfig{});
    switch_node = pipeline->node_id();
    for (size_t n = 0; n < nodes; ++n) {
      workers.push_back(std::make_unique<RackSchedWorker>(
          &testbed, executors_per_node, static_cast<uint32_t>(n), switch_node,
          IntraNodePolicy::kFcfs, /*report_latency=*/true));
      program->BindTarget(n, workers.back()->node_id());
    }
    client_node = network.Register(&client, net::HostProfile::Wire());
  }

  void Submit(net::Packet p) {
    p.dst = switch_node;
    network.Send(client_node, std::move(p));
  }

  cluster::Testbed testbed{cluster::TestbedConfig{}};
  sim::Simulator& simulator = testbed.simulator();
  net::Network& network = testbed.network();
  std::unique_ptr<MalcolmProgram> program;
  std::unique_ptr<p4::SwitchPipeline> pipeline;
  std::vector<std::unique_ptr<RackSchedWorker>> workers;
  Probe client;
  net::NodeId switch_node = net::kInvalidNode;
  net::NodeId client_node = net::kInvalidNode;
};

TEST_F(MalcolmTest, TasksCompleteAndCreditsFeedTheHistograms) {
  Build(2, 2);
  for (uint32_t i = 0; i < 8; ++i) {
    Submit(Task(i));
  }
  simulator.RunAll();
  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 8u);
  EXPECT_EQ(program->counters().tasks_pushed, 8u);
  EXPECT_EQ(program->counters().credits, 8u);
  uint64_t recorded = 0;
  for (size_t n = 0; n < 2; ++n) {
    EXPECT_EQ(program->cp_outstanding(n), 0u);
    recorded += program->cp_histogram(n).count();
  }
  // Every credit carried a measured sojourn (report_latency workers).
  EXPECT_EQ(recorded, 8u);
}

TEST_F(MalcolmTest, LeastOutstandingSpreadsBeforeAnySojournIsObserved) {
  Build(4, 1);
  for (uint32_t i = 0; i < 4; ++i) {
    Submit(Task(i, FromMillis(5)));
  }
  simulator.RunUntil(FromMillis(1));
  // No completions yet, so every node's expected sojourn is the 1 ns floor:
  // the rule degenerates to least-outstanding and spreads one task per node.
  for (size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(program->cp_outstanding(n), 1u);
  }
}

TEST_F(MalcolmTest, SteersAwayFromTheSlowNode) {
  Build(2, 1);
  // Teach the switch that node 0 is slow and node 1 fast: run one 2 ms task
  // on node 0 and one 10 us task on node 1 (outstanding ties route by
  // rotation, so the first goes to node 0, the second to node 1).
  Submit(Task(0, FromMillis(2)));
  Submit(Task(1, FromMicros(10)));
  simulator.RunAll();
  ASSERT_EQ(program->counters().credits, 2u);
  ASSERT_GT(program->cp_histogram(0).ExpectedNs(),
            program->cp_histogram(1).ExpectedNs());
  // Both nodes idle; the measured distributions now favor node 1.
  Submit(Task(2, FromMicros(10)));
  simulator.RunUntil(simulator.Now() + FromMicros(5));
  EXPECT_EQ(program->cp_outstanding(0), 0u);
  EXPECT_EQ(program->cp_outstanding(1), 1u);
}

// --- Sparrow --------------------------------------------------------------------

class SparrowTest : public ::testing::Test {
 protected:
  void Build(size_t num_workers, size_t executors_per_node) {
    scheduler = std::make_unique<SparrowScheduler>(&testbed, SparrowConfig{});
    std::vector<net::NodeId> nodes;
    for (size_t n = 0; n < num_workers; ++n) {
      workers.push_back(std::make_unique<SparrowWorker>(&testbed, executors_per_node,
                                                        static_cast<uint32_t>(n)));
      nodes.push_back(workers.back()->node_id());
    }
    scheduler->SetWorkers(nodes);
    client_node = network.Register(&client, net::HostProfile::Wire());
  }

  net::Packet Job(uint32_t jid, size_t tasks, TimeNs duration = FromMicros(100)) {
    net::Packet p;
    p.op = net::OpCode::kJobSubmission;
    p.dst = scheduler->node_id();
    p.uid = 1;
    p.jid = jid;
    for (size_t i = 0; i < tasks; ++i) {
      net::TaskInfo t;
      t.id = net::TaskId{1, jid, static_cast<uint32_t>(i)};
      t.meta.exec_duration = duration;
      t.meta.first_submit_time = 0;
      p.tasks.push_back(t);
    }
    return p;
  }

  cluster::Testbed testbed{cluster::TestbedConfig{}};
  sim::Simulator& simulator = testbed.simulator();
  net::Network& network = testbed.network();
  std::unique_ptr<SparrowScheduler> scheduler;
  std::vector<std::unique_ptr<SparrowWorker>> workers;
  Probe client;
  net::NodeId client_node = net::kInvalidNode;
};

TEST_F(SparrowTest, ProbesAreTwicePerTask) {
  Build(8, 1);
  network.Send(client_node, Job(1, 3));
  simulator.RunUntil(FromMicros(100));
  EXPECT_EQ(scheduler->counters().probes_sent, 6u);

  // Jobs larger than the cluster wrap around: every task still gets d
  // reservations so none can strand.
  network.Send(client_node, Job(2, 10));
  simulator.RunUntil(FromMicros(200));
  EXPECT_EQ(scheduler->counters().probes_sent, 6u + 20u);
}

TEST_F(SparrowTest, AllTasksCompleteViaLateBinding) {
  Build(4, 2);
  network.Send(client_node, Job(1, 6));
  simulator.RunAll();
  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 6u);
  EXPECT_EQ(scheduler->counters().tasks_launched, 6u);
}

TEST_F(SparrowTest, ExcessReservationsAreCancelled) {
  Build(8, 4);
  network.Send(client_node, Job(1, 4));  // 8 probes, 4 tasks
  simulator.RunAll();
  EXPECT_EQ(scheduler->counters().tasks_launched, 4u);
  EXPECT_EQ(scheduler->counters().empty_get_tasks, 4u);
  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 4u);
}

TEST_F(SparrowTest, LateBindingPicksFreeWorkers) {
  // One worker is clogged with a long job; a second job's tasks must land on
  // the free workers that answer get_task first.
  Build(2, 1);
  network.Send(client_node, Job(1, 2, FromMillis(50)));  // fills both workers
  simulator.RunUntil(FromMillis(1));
  network.Send(client_node, Job(2, 1, FromMicros(100)));
  simulator.RunAll();
  EXPECT_EQ(client.CountOf(net::OpCode::kCompletionNotice), 3u);
}

// --- Central server -----------------------------------------------------------

class CentralServerTest : public ::testing::Test {
 protected:
  void Build(CentralServerConfig::Transport transport, size_t capacity = 1024) {
    CentralServerConfig config;
    config.transport = transport;
    config.queue_capacity = capacity;
    server = std::make_unique<CentralServerScheduler>(&testbed, config);
    client_node = network.Register(&client, net::HostProfile::Wire());
    executor_node = network.Register(&executor, net::HostProfile::Wire());
  }

  void SendRequest() {
    net::Packet p;
    p.op = net::OpCode::kTaskRequest;
    p.dst = server->node_id();
    network.Send(executor_node, std::move(p));
  }

  cluster::Testbed testbed{cluster::TestbedConfig{}};
  sim::Simulator& simulator = testbed.simulator();
  net::Network& network = testbed.network();
  std::unique_ptr<CentralServerScheduler> server;
  Probe client;
  Probe executor;
  net::NodeId client_node = net::kInvalidNode;
  net::NodeId executor_node = net::kInvalidNode;
};

TEST_F(CentralServerTest, FcfsAssignment) {
  Build(CentralServerConfig::Transport::kDpdk);
  net::Packet job = Task(7);
  job.dst = server->node_id();
  network.Send(client_node, std::move(job));
  simulator.RunUntil(FromMicros(50));
  SendRequest();
  simulator.RunAll();
  ASSERT_EQ(executor.CountOf(net::OpCode::kTaskAssignment), 1u);
  EXPECT_EQ(client.CountOf(net::OpCode::kJobAck), 1u);
}

TEST_F(CentralServerTest, ParksRequestsOnEmptyQueue) {
  Build(CentralServerConfig::Transport::kDpdk);
  SendRequest();
  simulator.RunUntil(FromMicros(50));
  EXPECT_EQ(server->counters().parked_requests, 1u);
  EXPECT_EQ(executor.CountOf(net::OpCode::kTaskAssignment), 0u);

  net::Packet job = Task(1);
  job.dst = server->node_id();
  network.Send(client_node, std::move(job));
  simulator.RunAll();
  EXPECT_EQ(executor.CountOf(net::OpCode::kTaskAssignment), 1u);
}

TEST_F(CentralServerTest, FullQueueBouncesTasks) {
  Build(CentralServerConfig::Transport::kDpdk, /*capacity=*/1);
  net::Packet job = Task(0);
  job.tasks.push_back(job.tasks[0]);
  job.tasks[1].id.tid = 1;
  job.dst = server->node_id();
  network.Send(client_node, std::move(job));
  simulator.RunAll();
  EXPECT_EQ(server->counters().tasks_enqueued, 1u);
  ASSERT_EQ(client.CountOf(net::OpCode::kErrorQueueFull), 1u);
}

TEST_F(CentralServerTest, SocketTransportIsSlowerPerPacket) {
  const auto run = [&](CentralServerConfig::Transport transport) {
    cluster::Testbed tb{cluster::TestbedConfig{}};
    CentralServerConfig config;
    config.transport = transport;
    CentralServerScheduler srv(&tb, config);
    Probe probe;
    const net::NodeId src = tb.network().Register(&probe, net::HostProfile::Wire());
    net::Packet job = Task(0);
    job.dst = srv.node_id();
    tb.network().Send(src, std::move(job));
    tb.simulator().RunAll();
    return tb.simulator().Now();
  };
  EXPECT_GT(run(CentralServerConfig::Transport::kSocket),
            run(CentralServerConfig::Transport::kDpdk));
}

}  // namespace
}  // namespace draconis::baselines
