// Unit and small-scenario tests for the cluster layer: clients (timeouts,
// retries, MTU splitting, parameter serving), executors (pull loop, backoff,
// watchdog, §4.4 parameter fetch), the metrics hub, and §3.3 switch failover.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/client.h"
#include "cluster/executor.h"
#include "cluster/metrics.h"
#include "cluster/testbed.h"
#include "core/draconis_program.h"
#include "core/policy.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "net/network.h"
#include "p4/pipeline.h"
#include "sim/simulator.h"

namespace draconis::cluster {
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

// ---------------------------------------------------------------------------
// MetricsHub
// ---------------------------------------------------------------------------

TEST(MetricsHubTest, WindowFiltersByFirstSubmission) {
  MetricsHub hub(100, 200);
  net::TaskInfo in_window;
  in_window.id = net::TaskId{0, 0, 1};
  in_window.meta.first_submit_time = 150;
  net::TaskInfo before;
  before.id = net::TaskId{0, 0, 2};
  before.meta.first_submit_time = 50;
  net::TaskInfo after;
  after.id = net::TaskId{0, 0, 3};
  after.meta.first_submit_time = 250;

  hub.RecordExecutionStart(in_window, 160);
  hub.RecordExecutionStart(before, 60);
  hub.RecordExecutionStart(after, 260);
  EXPECT_EQ(hub.sched_delay().count(), 1u);
  EXPECT_EQ(hub.sched_delay().max(), 10);
}

TEST(MetricsHubTest, FirstExecutionDeduplicates) {
  MetricsHub hub(0, 1000);
  const net::TaskId id{1, 2, 3};
  EXPECT_TRUE(hub.FirstExecution(id));
  EXPECT_FALSE(hub.FirstExecution(id));
  EXPECT_TRUE(hub.FirstExecution(net::TaskId{1, 2, 4}));
}

// Registered jobs keep their first executions as bits; ids of jobs never
// registered, tasks past a job's size and a second registration of a job
// all still deduplicate exactly.
TEST(MetricsHubTest, FirstExecutionDeduplicatesRegisteredAndOtherIds) {
  MetricsHub hub(0, 1000);
  hub.RegisterJob(0, 0, 3);
  hub.RegisterJob(1, 0, 2);
  hub.RegisterJob(0, 1, 1);
  hub.RegisterJob(0, 1, 5);  // a second registration keeps the first
  hub.RegisterJob(0, 9, 2);  // past a gap of unregistered jids
  const net::TaskId registered[] = {{0, 0, 0}, {0, 0, 2}, {1, 0, 1}, {0, 1, 0}, {0, 9, 1}};
  const net::TaskId other[] = {{0, 1, 3}, {0, 0, 3}, {0, 5, 0}, {7, 0, 0}, {1 << 20, 3, 3}};
  for (const bool first : {true, false}) {
    for (const auto* ids : {&registered, &other}) {
      for (const net::TaskId& id : *ids) {
        EXPECT_EQ(hub.FirstExecution(id), first) << id.uid << "," << id.jid << "," << id.tid;
      }
    }
  }
  EXPECT_TRUE(hub.FirstExecution(net::TaskId{0, 0, 1}));
  EXPECT_TRUE(hub.FirstExecution(net::TaskId{1, 0, 0}));
  EXPECT_TRUE(hub.FirstExecution(net::TaskId{0, 9, 0}));
}

TEST(MetricsHubTest, BusyIntervalClampedToWindow) {
  MetricsHub hub(100, 200);
  hub.RecordBusyInterval(50, 150);   // clipped to [100, 150]
  hub.RecordBusyInterval(150, 250);  // clipped to [150, 200]
  hub.RecordBusyInterval(300, 400);  // outside entirely
  EXPECT_EQ(hub.total_busy(), 100);
}

TEST(MetricsHubTest, PriorityHistogramsClampLevels) {
  MetricsHub hub(0, 1000, 0, 4);
  net::TaskInfo task;
  task.meta.first_submit_time = 1;
  task.meta.enqueue_time = 1;
  task.tprops = 99;  // clamps to level 4
  hub.RecordAssignment(task, 11);
  EXPECT_EQ(hub.priority_queueing(4).count(), 1u);
}

TEST(MetricsHubTest, PlacementCounters) {
  MetricsHub hub(0, 1000);
  hub.RecordPlacement(net::TaskInfo::Placement::kLocal);
  hub.RecordPlacement(net::TaskInfo::Placement::kLocal);
  hub.RecordPlacement(net::TaskInfo::Placement::kRemote);
  EXPECT_EQ(hub.placements(net::TaskInfo::Placement::kLocal), 2u);
  EXPECT_EQ(hub.placements(net::TaskInfo::Placement::kSameRack), 0u);
  EXPECT_EQ(hub.placements(net::TaskInfo::Placement::kRemote), 1u);
}

TEST(MetricsHubTest, NodeCompletionTotals) {
  MetricsHub hub(0, kSecond, 2);
  hub.RecordNodeCompletion(0, 10);
  hub.RecordNodeCompletion(1, 20);
  hub.RecordNodeCompletion(7, 30);  // unknown node: counted in the total only
  EXPECT_EQ(hub.total_node_completions(), 3u);
  EXPECT_DOUBLE_EQ(hub.node_completions(0).BucketSum(0), 1.0);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

class ClientTest : public ::testing::Test {
 protected:
  ClientTest()
      : simulator(testbed.simulator()),
        network(testbed.network()),
        metrics(*testbed.metrics()) {}

  Client& MakeClient(ClientConfig config = {}) {
    client = std::make_unique<Client>(&testbed, config);
    scheduler_node = network.Register(&scheduler, net::HostProfile::Wire());
    client->SetScheduler(scheduler_node);
    return *client;
  }

  Testbed testbed{TestbedConfig{}};
  sim::Simulator& simulator;
  net::Network& network;
  MetricsHub& metrics;
  std::unique_ptr<Client> client;
  Probe scheduler;
  net::NodeId scheduler_node = net::kInvalidNode;
};

TEST_F(ClientTest, SubmitsJobAsOnePacketWhenItFits) {
  Client& c = MakeClient();
  c.SubmitJob(std::vector<TaskSpec>(5));
  simulator.RunUntil(FromMicros(50));
  ASSERT_EQ(scheduler.received.size(), 1u);
  EXPECT_EQ(scheduler.received[0].tasks.size(), 5u);
  EXPECT_EQ(c.outstanding(), 5u);
}

TEST_F(ClientTest, SplitsLargeJobsAtTheMtu) {
  Client& c = MakeClient();
  const size_t max = net::MaxTasksPerPacket();
  c.SubmitJob(std::vector<TaskSpec>(max + 3));
  simulator.RunUntil(FromMicros(40));  // before the no-reply timeouts fire
  ASSERT_EQ(scheduler.received.size(), 2u);
  EXPECT_EQ(scheduler.received[0].tasks.size(), max);
  EXPECT_EQ(scheduler.received[1].tasks.size(), 3u);
  for (const auto& pkt : scheduler.received) {
    EXPECT_LE(pkt.WireSize(), net::kMtuBytes);
  }
}

TEST_F(ClientTest, SingleTaskPacketModeSendsTrains) {
  ClientConfig config;
  config.max_tasks_per_packet = 1;
  Client& c = MakeClient(config);
  c.SubmitJob(std::vector<TaskSpec>(4));
  simulator.RunUntil(FromMicros(40));  // before the no-reply timeouts fire
  EXPECT_EQ(scheduler.received.size(), 4u);
}

TEST_F(ClientTest, TimeoutResubmitsWithBackoff) {
  ClientConfig config;
  config.timeout_multiplier = 2.0;
  Client& c = MakeClient(config);
  TaskSpec spec;
  spec.duration = FromMicros(100);
  c.SubmitJob({spec});  // the scheduler probe never answers

  simulator.RunUntil(FromMicros(250));  // past the 200 us timeout
  EXPECT_EQ(metrics.timeout_resubmissions(), 1u);
  EXPECT_EQ(scheduler.CountOf(net::OpCode::kJobSubmission), 2u);

  // Second timeout doubles: fires at ~200 + 400 us.
  simulator.RunUntil(FromMicros(500));
  EXPECT_EQ(metrics.timeout_resubmissions(), 1u);
  simulator.RunUntil(FromMicros(700));
  EXPECT_EQ(metrics.timeout_resubmissions(), 2u);
}

TEST_F(ClientTest, CompletionCancelsTimeoutAndIgnoresDuplicates) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  ASSERT_EQ(scheduler.received.size(), 1u);
  net::TaskInfo task = scheduler.received[0].tasks[0];

  net::Packet notice;
  notice.op = net::OpCode::kCompletionNotice;
  notice.dst = c.node_id();
  notice.tasks = {task};
  network.Send(scheduler_node, net::Packet(notice));
  network.Send(scheduler_node, std::move(notice));  // duplicate
  simulator.RunUntil(FromSeconds(1));

  EXPECT_EQ(c.outstanding(), 0u);
  EXPECT_EQ(c.completions(), 1u);
  EXPECT_EQ(metrics.timeout_resubmissions(), 0u);
  EXPECT_EQ(metrics.e2e_delay().count(), 1u);
}

TEST_F(ClientTest, HedgeResendsWithNextAttemptAndResampledDuration) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMillis(5);
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  ASSERT_EQ(scheduler.received.size(), 1u);
  const net::TaskInfo original = scheduler.received[0].tasks[0];

  EXPECT_TRUE(c.HedgeTask(original.id, FromMicros(100)));
  EXPECT_FALSE(c.HedgeTask(original.id)) << "at most one hedge per task";
  simulator.RunUntil(FromMicros(40));
  ASSERT_EQ(scheduler.received.size(), 2u);
  const net::TaskInfo& duplicate = scheduler.received[1].tasks[0];
  EXPECT_EQ(duplicate.id, original.id);
  EXPECT_EQ(duplicate.meta.attempt, original.meta.attempt + 1);
  EXPECT_EQ(duplicate.meta.exec_duration, FromMicros(100));
  EXPECT_EQ(metrics.hedges_launched(), 1u);
}

TEST_F(ClientTest, CancelStopsTrackingAndSuppressesTheLateNotice) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  const net::TaskInfo task = scheduler.received[0].tasks[0];

  EXPECT_TRUE(c.CancelTask(task.id));
  EXPECT_EQ(c.outstanding(), 0u);
  EXPECT_EQ(metrics.cancellations(), 1u);

  // The replica in flight still "completes"; its notice must be suppressed
  // and the cancelled timeout must never resubmit.
  net::Packet notice;
  notice.op = net::OpCode::kCompletionNotice;
  notice.dst = c.node_id();
  notice.tasks = {task};
  network.Send(scheduler_node, std::move(notice));
  simulator.RunUntil(FromSeconds(1));
  EXPECT_EQ(c.completions(), 0u);
  EXPECT_EQ(metrics.e2e_delay().count(), 0u);
  EXPECT_EQ(metrics.timeout_resubmissions(), 0u);
}

TEST_F(ClientTest, CancelOfCompletedTaskIsAStrictNoOp) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  const net::TaskInfo task = scheduler.received[0].tasks[0];

  net::Packet notice;
  notice.op = net::OpCode::kCompletionNotice;
  notice.dst = c.node_id();
  notice.tasks = {task};
  network.Send(scheduler_node, std::move(notice));
  simulator.RunUntil(FromMicros(200));
  ASSERT_EQ(c.completions(), 1u);

  // Cancelling after the completion (or cancelling twice) must not move any
  // counter: the race "completion beat the cancel" cannot double-count.
  EXPECT_FALSE(c.CancelTask(task.id));
  EXPECT_FALSE(c.CancelTask(task.id));
  EXPECT_EQ(metrics.cancellations(), 0u);
  EXPECT_EQ(c.completions(), 1u);
  // Hedging a completed task is refused the same way.
  EXPECT_FALSE(c.HedgeTask(task.id));
  EXPECT_EQ(metrics.hedges_launched(), 0u);
}

TEST_F(ClientTest, QueueFullErrorRetriesAfterWait) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  net::TaskInfo task = scheduler.received[0].tasks[0];

  net::Packet error;
  error.op = net::OpCode::kErrorQueueFull;
  error.dst = c.node_id();
  error.tasks = {task};
  network.Send(scheduler_node, std::move(error));
  simulator.RunUntil(FromMicros(100));  // the 50 us wait is still running
  EXPECT_EQ(scheduler.CountOf(net::OpCode::kJobSubmission), 2u);
  EXPECT_EQ(metrics.queue_full_retries(), 1u);
}

TEST_F(ClientTest, FireAndForgetTracksNothing) {
  ClientConfig config;
  config.fire_and_forget = true;
  Client& c = MakeClient(config);
  c.SubmitJob(std::vector<TaskSpec>(8));
  simulator.RunUntil(FromSeconds(5));
  EXPECT_EQ(c.outstanding(), 0u);
  EXPECT_EQ(metrics.timeout_resubmissions(), 0u);
}

// The client tracks outstanding tasks in per-job slots indexed by jid; these
// pin the cases a window of jobs must get right.
class ClientSlotsTest : public ClientTest {
 protected:
  // Submits jobs of the given sizes (long tasks, so no timeout fires) and
  // returns each job's tasks as the scheduler received them.
  std::vector<std::vector<net::TaskInfo>> SubmitJobs(Client& c, const std::vector<size_t>& sizes) {
    TaskSpec spec;
    spec.duration = FromMillis(50);
    for (size_t n : sizes) {
      c.SubmitJob(std::vector<TaskSpec>(n, spec));
    }
    simulator.RunUntil(simulator.Now() + FromMicros(20));
    std::vector<std::vector<net::TaskInfo>> jobs;
    for (const net::Packet& pkt : scheduler.received) {
      if (pkt.op == net::OpCode::kJobSubmission) {
        jobs.emplace_back(pkt.tasks.begin(), pkt.tasks.end());
      }
    }
    scheduler.received.clear();
    return jobs;
  }

  void Deliver(net::OpCode op, std::vector<net::TaskInfo> tasks) {
    net::Packet pkt;
    pkt.op = op;
    pkt.dst = client->node_id();
    pkt.tasks.assign(tasks.begin(), tasks.end());
    network.Send(scheduler_node, std::move(pkt));
    simulator.RunUntil(simulator.Now() + FromMicros(20));
  }

  void Complete(const net::TaskInfo& task) { Deliver(net::OpCode::kCompletionNotice, {task}); }
};

TEST_F(ClientSlotsTest, CompletionsOutOfJobOrderKeepOutstandingExact) {
  Client& c = MakeClient();
  std::vector<net::TaskId> completed;
  c.SetCompletionCallback(
      [&](const net::TaskInfo& task, TimeNs) { completed.push_back(task.id); });
  const auto jobs = SubmitJobs(c, {3, 2, 1, 2});
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(c.outstanding(), 8u);

  // Ids the client never submitted: a later jid, a tid past the job's end,
  // another client's uid. None is ours.
  net::TaskInfo stranger = jobs[1][0];
  stranger.id.jid = 99;
  Complete(stranger);
  stranger = jobs[3][0];
  stranger.id.tid = 7;
  Complete(stranger);
  stranger = jobs[2][0];
  stranger.id.uid = 5;
  Complete(stranger);
  EXPECT_EQ(c.completions(), 0u);
  EXPECT_TRUE(completed.empty());
  EXPECT_EQ(c.outstanding(), 8u);

  // Newest job first, then a middle task of the oldest, each completion
  // followed by a duplicate notice that must change nothing.
  const std::vector<net::TaskInfo> order = {jobs[3][1], jobs[3][0], jobs[0][1], jobs[2][0],
                                            jobs[1][0], jobs[0][2], jobs[0][0], jobs[1][1]};
  size_t outstanding = 8;
  for (const net::TaskInfo& task : order) {
    Complete(task);
    Complete(task);
    EXPECT_EQ(c.outstanding(), --outstanding);
  }
  EXPECT_EQ(c.completions(), 8u);
  ASSERT_EQ(completed.size(), 8u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(completed[i], order[i].id);
  }


  // A new job after the window emptied is tracked from scratch.
  const auto later = SubmitJobs(c, {2});
  EXPECT_EQ(c.outstanding(), 2u);
  Complete(later[0][1]);
  EXPECT_EQ(c.outstanding(), 1u);
  EXPECT_EQ(metrics.timeout_resubmissions(), 0u);
}

TEST_F(ClientSlotsTest, QueueFullRetrySkipsATaskThatCompletedMeanwhile) {
  Client& c = MakeClient();
  const auto jobs = SubmitJobs(c, {1, 2});
  Complete(jobs[0][0]);
  Complete(jobs[1][1]);
  EXPECT_EQ(c.outstanding(), 1u);

  // The scheduler refuses all three; only the one still outstanding retries.
  Deliver(net::OpCode::kErrorQueueFull, {jobs[0][0], jobs[1][0], jobs[1][1]});
  simulator.RunUntil(simulator.Now() + Client::kQueueFullRetryWait);
  EXPECT_EQ(metrics.queue_full_retries(), 1u);
  ASSERT_EQ(scheduler.CountOf(net::OpCode::kJobSubmission), 1u);
  const net::Packet& retry = scheduler.received.back();
  ASSERT_EQ(retry.tasks.size(), 1u);
  EXPECT_EQ(retry.tasks[0].id, jobs[1][0].id);
  EXPECT_EQ(retry.tasks[0].meta.attempt, 1u);
  EXPECT_EQ(c.outstanding(), 1u);
}

TEST_F(ClientSlotsTest, HedgeAndCancelOnTheOldestJobAfterNewerJobsCompleted) {
  Client& c = MakeClient();
  const auto jobs = SubmitJobs(c, {2, 1, 3});
  for (const net::TaskInfo& task : jobs[1]) {
    Complete(task);
  }
  for (const net::TaskInfo& task : jobs[2]) {
    Complete(task);
  }
  EXPECT_EQ(c.outstanding(), 2u);

  EXPECT_TRUE(c.HedgeTask(jobs[0][0].id, FromMicros(10)));
  EXPECT_TRUE(c.CancelTask(jobs[0][1].id));
  EXPECT_FALSE(c.CancelTask(jobs[0][1].id));
  EXPECT_FALSE(c.HedgeTask(jobs[2][0].id)) << "a completed job's task is not outstanding";
  EXPECT_EQ(c.outstanding(), 1u);
  simulator.RunUntil(simulator.Now() + FromMicros(20));
  ASSERT_EQ(scheduler.CountOf(net::OpCode::kJobSubmission), 1u);
  const net::TaskInfo hedge = scheduler.received.back().tasks[0];
  EXPECT_EQ(hedge.id, jobs[0][0].id);
  EXPECT_EQ(hedge.meta.attempt, 1u);

  Complete(hedge);  // the replica wins
  EXPECT_EQ(c.outstanding(), 0u);
  EXPECT_EQ(metrics.hedge_wins(), 1u);
  Complete(jobs[0][0]);  // the loser's late notice
  Complete(jobs[0][1]);  // the cancelled task's late notice
  EXPECT_EQ(c.completions(), 5u);
  EXPECT_EQ(c.outstanding(), 0u);
  EXPECT_EQ(metrics.cancellations(), 2u);  // the hedge loser and the cancel
}

TEST_F(ClientSlotsTest, FireAndForgetIgnoresEveryNotice) {
  ClientConfig config;
  config.fire_and_forget = true;
  Client& c = MakeClient(config);
  int callbacks = 0;
  c.SetCompletionCallback([&](const net::TaskInfo&, TimeNs) { ++callbacks; });
  const auto jobs = SubmitJobs(c, {2, 1});
  EXPECT_EQ(c.outstanding(), 0u);
  Complete(jobs[0][0]);
  Deliver(net::OpCode::kErrorQueueFull, {jobs[1][0]});
  EXPECT_FALSE(c.HedgeTask(jobs[0][1].id));
  EXPECT_FALSE(c.CancelTask(jobs[0][1].id));
  simulator.RunUntil(FromSeconds(1));
  EXPECT_EQ(c.outstanding(), 0u);
  EXPECT_EQ(c.completions(), 0u);
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(metrics.queue_full_retries(), 0u);
  EXPECT_EQ(metrics.timeout_resubmissions(), 0u);
}

TEST_F(ClientTest, ServesParamFetches) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  spec.oversized_param_bytes = 4096;
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  net::TaskInfo task = scheduler.received[0].tasks[0];
  EXPECT_EQ(task.fn_id, net::kTransmissionFnId);
  EXPECT_EQ(task.fn_par, 4096u);

  net::Packet fetch;
  fetch.op = net::OpCode::kParamFetch;
  fetch.dst = c.node_id();
  fetch.tasks = {task};
  network.Send(scheduler_node, std::move(fetch));
  simulator.RunUntil(FromMicros(100));
  ASSERT_EQ(scheduler.CountOf(net::OpCode::kParamData), 1u);
  for (const auto& pkt : scheduler.received) {
    if (pkt.op == net::OpCode::kParamData) {
      EXPECT_EQ(pkt.payload_bytes, 4096u);
    }
  }
}

// ---------------------------------------------------------------------------
// Executor against a real switch
// ---------------------------------------------------------------------------

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : simulator(testbed.simulator()),
        network(testbed.network()),
        metrics(*testbed.metrics()),
        program(&policy, core::DraconisConfig{}),
        pipeline(testbed, &program, p4::PipelineConfig{}) {
    switch_node = pipeline.node_id();
    client = std::make_unique<Client>(&testbed, ClientConfig{});
    client->SetScheduler(switch_node);
  }

  Executor& MakeExecutor(ExecutorConfig config = {}) {
    executor = std::make_unique<Executor>(&testbed, config);
    executor->Start(switch_node, 1);
    return *executor;
  }

  Testbed testbed{TestbedConfig{}};
  sim::Simulator& simulator;
  net::Network& network;
  MetricsHub& metrics;
  core::FcfsPolicy policy;
  core::DraconisProgram program;
  p4::SwitchPipeline pipeline;
  std::unique_ptr<Client> client;
  std::unique_ptr<Executor> executor;
  net::NodeId switch_node = net::kInvalidNode;
};

TEST_F(ExecutorTest, PullLoopExecutesSubmittedTask) {
  Executor& ex = MakeExecutor();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  simulator.ScheduleAt(FromMicros(30), [&] { client->SubmitJob({spec}); });
  simulator.RunUntil(FromMillis(1));
  EXPECT_EQ(ex.tasks_executed(), 1u);
  EXPECT_EQ(client->completions(), 1u);
  EXPECT_GE(metrics.total_busy(), FromMicros(100));
}

TEST_F(ExecutorTest, BacksOffWhileIdle) {
  MakeExecutor();
  simulator.RunUntil(FromMillis(2));
  // With 2 us initial and 8 us cap (plus ~3.5 us RTT), an idle executor
  // polls a few hundred times in 2 ms — not thousands (no 2 us hammering),
  // not a handful.
  const uint64_t polls = program.counters().noops_sent;
  EXPECT_GT(polls, 100u);
  EXPECT_LT(polls, 1000u);
}

TEST_F(ExecutorTest, WatchdogRecoversFromLostReply) {
  ExecutorConfig config;
  config.request_timeout = FromMicros(200);
  Executor& ex = MakeExecutor(config);
  // Black-hole the switch->executor direction briefly: replies are lost.
  network.InjectDrop(switch_node, ex.node_id(), 1.0);
  simulator.RunUntil(FromMillis(1));
  network.ClearDropRules();
  TaskSpec spec;
  spec.duration = FromMicros(50);
  client->SubmitJob({spec});
  simulator.RunUntil(FromMillis(3));
  EXPECT_EQ(ex.tasks_executed(), 1u) << "watchdog failed to re-request";
}

TEST_F(ExecutorTest, FetchesOversizedParamsBeforeRunning) {
  Executor& ex = MakeExecutor();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  spec.oversized_param_bytes = 32 * 1024;
  simulator.ScheduleAt(FromMicros(30), [&] { client->SubmitJob({spec}); });
  simulator.RunUntil(FromMillis(2));
  EXPECT_EQ(ex.tasks_executed(), 1u);
  EXPECT_EQ(client->completions(), 1u);
  // The execution start includes the client round trip for the parameters:
  // at least two extra one-way hops beyond the normal ~3-4 us pull path.
  EXPECT_GT(metrics.sched_delay().max(), FromMicros(7));
}

TEST_F(ExecutorTest, ParamFetchSurvivesLostData) {
  ExecutorConfig config;
  config.request_timeout = FromMicros(300);
  Executor& ex = MakeExecutor(config);
  TaskSpec spec;
  spec.duration = FromMicros(100);
  spec.oversized_param_bytes = 1024;
  simulator.ScheduleAt(FromMicros(30), [&] { client->SubmitJob({spec}); });
  // Lose the first fetch request(s).
  network.InjectDrop(ex.node_id(), client->node_id(), 1.0);
  simulator.ScheduleAt(FromMillis(1), [&] { network.ClearDropRules(); });
  simulator.RunUntil(FromMillis(5));
  // The client may have resubmitted (duplicates execute too), but it counts
  // exactly one completion and the fetch retry eventually succeeded.
  EXPECT_GE(ex.tasks_executed(), 1u);
  EXPECT_EQ(client->completions(), 1u);
}

// ---------------------------------------------------------------------------
// §3.3 switch failover
// ---------------------------------------------------------------------------

TEST(FailoverTest, ClusterSurvivesSwitchFailure) {
  Testbed testbed{TestbedConfig{}};
  sim::Simulator& simulator = testbed.simulator();
  net::Network& network = testbed.network();
  MetricsHub& metrics = *testbed.metrics();

  core::FcfsPolicy policy;
  core::DraconisConfig dc;
  core::DraconisProgram program_a(&policy, dc);
  core::DraconisProgram program_b(&policy, dc);
  p4::SwitchPipeline switch_a(testbed, &program_a, p4::PipelineConfig{});
  p4::SwitchPipeline switch_b(&simulator, &program_b, p4::PipelineConfig{});
  const net::NodeId node_a = switch_a.node_id();
  const net::NodeId node_b = switch_b.AttachNetwork(&network);
  // (The fabric treats the most recently attached pipeline as the ToR for
  // hop accounting; immaterial for this test.)

  std::vector<std::unique_ptr<Executor>> executors;
  for (int i = 0; i < 4; ++i) {
    ExecutorConfig config;
    config.request_timeout = FromMicros(500);
    executors.push_back(std::make_unique<Executor>(&testbed, config));
    executors.back()->Start(node_a, 1 + i * 100);
  }
  ClientConfig cc;
  cc.timeout_multiplier = 3.0;
  Client client(&testbed, cc);
  client.SetScheduler(node_a);

  // Submit 16-task bursts (4 executors -> each burst queues deep); the
  // primary switch dies mid-burst with tasks parked in its queue, and the
  // control plane re-points everyone at the standby.
  for (int burst = 0; burst < 10; ++burst) {
    simulator.ScheduleAt(1 + burst * FromMicros(500), [&] {
      client.SubmitJob(std::vector<TaskSpec>(16, TaskSpec{FromMicros(100), 0, 0, 0, 0}));
    });
  }
  simulator.ScheduleAt(FromMillis(2) + FromMicros(60), [&] {
    network.Disconnect(node_a);
    client.SetScheduler(node_b);
    for (auto& executor : executors) {
      executor->Rehome(node_b);
    }
  });

  simulator.RunUntil(FromSeconds(2));
  // Every task completes: tasks parked in the dead switch's queue are
  // resubmitted by client timeouts, and executor watchdogs re-pull.
  EXPECT_EQ(client.completions(), 160u);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_GT(metrics.timeout_resubmissions(), 0u);
  EXPECT_GT(program_b.counters().tasks_assigned, 0u);
}

// The same crash -> rehome -> recover arc, but driven by a fault::Injector
// plan instead of hand-scheduled callbacks, and with the client left to
// discover the failure through its own timeout streak (SetStandby). No task
// is lost and §8.3 duplicate suppression keeps the completion count exact.
TEST(FailoverTest, InjectorDrivenFailoverLosesNoTasks) {
  Testbed testbed{TestbedConfig{}};
  sim::Simulator& simulator = testbed.simulator();
  MetricsHub& metrics = *testbed.metrics();

  core::FcfsPolicy policy;
  core::DraconisConfig dc;
  core::DraconisProgram program_a(&policy, dc);
  core::DraconisProgram program_b(&policy, dc);
  p4::SwitchPipeline switch_a(testbed, &program_a, p4::PipelineConfig{});
  p4::SwitchPipeline switch_b(&simulator, &program_b, p4::PipelineConfig{});
  const net::NodeId node_a = switch_a.node_id();
  const net::NodeId node_b = switch_b.AttachNetwork(&testbed.network());

  std::vector<std::unique_ptr<Executor>> executors;
  for (int i = 0; i < 4; ++i) {
    ExecutorConfig config;
    config.request_timeout = FromMicros(500);
    executors.push_back(std::make_unique<Executor>(&testbed, config));
    executors.back()->Start(node_a, 1 + i * 100);
  }
  ClientConfig cc;
  // Generous timeouts (3 ms on the 100 us tasks): queueing on the live
  // standby never looks like a failure, so only the real crash triggers the
  // timeout streak and the client flips exactly once.
  cc.timeout_multiplier = 30.0;
  Client client(&testbed, cc);
  client.SetScheduler(node_a);
  client.SetStandby(node_b);

  fault::FaultPlan plan;
  plan.SchedulerFailover(FromMillis(2) + FromMicros(60));
  fault::InjectorHooks hooks;
  hooks.resolve = [&](const fault::NodeRef& ref) -> std::vector<net::NodeId> {
    if (ref.role == fault::NodeRef::Role::kScheduler) {
      return {node_a};
    }
    return {};
  };
  hooks.on_failover = [&] {
    for (auto& executor : executors) {
      executor->Rehome(node_b);
      metrics.RecordExecutorRehome();
    }
  };
  fault::Injector injector(&testbed, plan, std::move(hooks));
  injector.Arm();

  for (int burst = 0; burst < 10; ++burst) {
    simulator.ScheduleAt(1 + burst * FromMicros(500), [&] {
      client.SubmitJob(std::vector<TaskSpec>(16, TaskSpec{FromMicros(100), 0, 0, 0, 0}));
    });
  }
  simulator.RunUntil(FromSeconds(2));

  // Reconstruction by resubmission: every task completes exactly once.
  EXPECT_EQ(client.completions(), 160u);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(metrics.e2e_delay().count(), 160u) << "duplicates must be suppressed";
  EXPECT_GT(metrics.timeout_resubmissions(), 0u);
  EXPECT_GT(program_b.counters().tasks_assigned, 0u);
  EXPECT_TRUE(testbed.network().IsDisconnected(node_a));
  EXPECT_EQ(injector.events_started(), 1u);
  // The stale-timeout guard means the client flips exactly once — never back
  // to the dead switch — and the hub saw both rehome flavours.
  EXPECT_EQ(metrics.client_rehomes(), 1u);
  EXPECT_EQ(metrics.executor_rehomes(), 4u);
}

}  // namespace
}  // namespace draconis::cluster
