// Task-lifecycle tracing (src/trace/): sampler determinism, recorder
// finalization, end-to-end timeline ordering through a real experiment, the
// telescoping attribution invariant, and the §3.3/§8.3 failure paths
// (duplicate suppression after timeout resubmission, executor rehoming).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/push_program.h"
#include "baselines/r2p2.h"
#include "baselines/racksched.h"
#include "cluster/client.h"
#include "cluster/executor.h"
#include "cluster/experiment.h"
#include "cluster/metrics.h"
#include "cluster/task_runner.h"
#include "cluster/testbed.h"
#include "core/draconis_program.h"
#include "core/policy.h"
#include "net/network.h"
#include "p4/pipeline.h"
#include "sim/simulator.h"
#include "trace/export.h"
#include "trace/recorder.h"
#include "workload/workload.h"

namespace draconis {
namespace {

using trace::Kind;
using trace::Recorder;
using trace::SpanRecord;
using trace::TraceConfig;

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

TEST(TraceSamplerTest, HashIsAPureFunctionOfTheId) {
  const net::TaskId id{3, 17, 112};
  EXPECT_EQ(Recorder::HashOf(id), Recorder::HashOf(id));
  EXPECT_NE(Recorder::HashOf(id), Recorder::HashOf(net::TaskId{3, 17, 113}));

  // Two recorders with the same period agree on every id, regardless of any
  // other configuration — sampling depends on nothing but the id.
  TraceConfig a;
  a.sample_period = 8;
  TraceConfig b;
  b.sample_period = 8;
  b.max_records = 16;
  Recorder ra(a);
  Recorder rb(b);
  for (uint32_t t = 0; t < 1000; ++t) {
    const net::TaskId task{1, 2, t};
    EXPECT_EQ(ra.Sampled(task), rb.Sampled(task)) << "tid=" << t;
  }
}

TEST(TraceSamplerTest, PeriodOneSamplesEverything) {
  TraceConfig config;
  config.sample_period = 1;
  Recorder recorder(config);
  for (uint32_t t = 0; t < 100; ++t) {
    EXPECT_TRUE(recorder.Sampled(net::TaskId{0, 0, t}));
  }
  // Period 0 is clamped to 1, not treated as "never".
  TraceConfig zero;
  zero.sample_period = 0;
  Recorder rz(zero);
  EXPECT_TRUE(rz.Sampled(net::TaskId{9, 9, 9}));
}

TEST(TraceSamplerTest, SampleDensityTracksThePeriod) {
  TraceConfig config;
  config.sample_period = 64;
  Recorder recorder(config);
  size_t sampled = 0;
  const size_t kIds = 64 * 256;
  for (uint32_t j = 0; j < 64; ++j) {
    for (uint32_t t = 0; t < 256; ++t) {
      sampled += recorder.Sampled(net::TaskId{0, j, t}) ? 1 : 0;
    }
  }
  // Expected kIds/64 = 256; the hash should land within a loose 2x band.
  EXPECT_GT(sampled, kIds / 128);
  EXPECT_LT(sampled, kIds / 32);
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, FinalizeCensorsTasksWithoutATerminal) {
  TraceConfig config;
  config.sample_period = 1;
  Recorder recorder(config);
  const net::TaskId done{0, 0, 1};
  const net::TaskId stuck{0, 0, 2};
  recorder.Record(done, Kind::kSubmit, 10, 10);
  recorder.Record(stuck, Kind::kSubmit, 20, 20);
  recorder.Record(done, Kind::kComplete, 500, 500);
  recorder.RecordGlobal(Kind::kRehome, 600, 3, 4);  // global: never censored
  recorder.FinalizeAt(1000);

  std::vector<SpanRecord> censored;
  for (const SpanRecord& rec : recorder.records()) {
    if (rec.kind == Kind::kCensored) {
      censored.push_back(rec);
    }
  }
  ASSERT_EQ(censored.size(), 1u);
  EXPECT_EQ(censored[0].id, stuck);
  EXPECT_EQ(censored[0].begin, 1000);
  EXPECT_EQ(censored[0].end, 1000);
}

TEST(TraceRecorderTest, RecordCapCountsDrops) {
  TraceConfig config;
  config.sample_period = 1;
  config.max_records = 2;
  Recorder recorder(config);
  const net::TaskId id{0, 0, 1};
  recorder.Record(id, Kind::kSubmit, 1, 1);
  recorder.Record(id, Kind::kClientSend, 2, 2);
  recorder.Record(id, Kind::kComplete, 3, 3);
  EXPECT_EQ(recorder.records().size(), 2u);
  EXPECT_EQ(recorder.dropped_records(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: a real Draconis experiment with full sampling
// ---------------------------------------------------------------------------

cluster::ExperimentConfig TracedConfig() {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(1);
  config.horizon = FromMillis(10);
  config.max_tasks_per_packet = 1;
  config.timeout_multiplier = 5.0;
  config.seed = 42;
  config.trace.enabled = true;
  config.trace.sample_period = 1;

  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 0.5 * 16 / 100e-6;
  spec.duration = config.horizon;
  spec.tasks_per_job = 10;
  spec.service = workload::ServiceTime::Fixed(FromMicros(100));
  spec.seed = config.seed;
  config.stream = spec.Generate();
  return config;
}

// First record of `kind` (optionally for one attempt) in a task's timeline.
const SpanRecord* FindFirst(const std::vector<const SpanRecord*>& timeline, Kind kind,
                            int attempt = -1) {
  for (const SpanRecord* rec : timeline) {
    if (rec->kind == kind && (attempt < 0 || rec->attempt == attempt)) {
      return rec;
    }
  }
  return nullptr;
}

TEST(TraceExperimentTest, TimelinesCoverEveryLayerInOrder) {
  cluster::ExperimentResult result = cluster::RunExperiment(TracedConfig());
  ASSERT_NE(result.trace, nullptr);
  const Recorder& recorder = *result.trace;
  EXPECT_EQ(recorder.dropped_records(), 0u);
  EXPECT_GT(recorder.records().size(), 0u);

  std::map<net::TaskId, std::vector<const SpanRecord*>,
           bool (*)(const net::TaskId&, const net::TaskId&)>
      by_task([](const net::TaskId& a, const net::TaskId& b) {
        return std::tie(a.uid, a.jid, a.tid) < std::tie(b.uid, b.jid, b.tid);
      });
  for (const SpanRecord& rec : recorder.records()) {
    EXPECT_LE(rec.begin, rec.end);
    EXPECT_GE(rec.begin, 0);
    if (!(rec.id == trace::kGlobalTaskId)) {
      by_task[rec.id].push_back(&rec);
    }
  }

  size_t completed = 0;
  size_t terminals = 0;
  for (const auto& [id, timeline] : by_task) {
    // Exactly one terminal record per sampled task.
    size_t task_terminals = 0;
    for (const SpanRecord* rec : timeline) {
      task_terminals += trace::IsTerminal(rec->kind) ? 1 : 0;
    }
    EXPECT_EQ(task_terminals, 1u) << "uid=" << id.uid << " jid=" << id.jid
                                  << " tid=" << id.tid;
    terminals += task_terminals;

    const SpanRecord* complete = FindFirst(timeline, Kind::kComplete);
    if (complete == nullptr) {
      continue;
    }
    ++completed;
    const int win = complete->attempt;
    const SpanRecord* submit = FindFirst(timeline, Kind::kSubmit);
    const SpanRecord* send = FindFirst(timeline, Kind::kClientSend, win);
    const SpanRecord* enqueue = FindFirst(timeline, Kind::kEnqueue, win);
    const SpanRecord* assign = FindFirst(timeline, Kind::kAssign, win);
    const SpanRecord* arrive = FindFirst(timeline, Kind::kExecArrive, win);
    const SpanRecord* service = FindFirst(timeline, Kind::kExecService, win);
    ASSERT_NE(submit, nullptr);
    ASSERT_NE(send, nullptr);
    ASSERT_NE(enqueue, nullptr);
    ASSERT_NE(assign, nullptr);
    ASSERT_NE(arrive, nullptr);
    ASSERT_NE(service, nullptr);
    EXPECT_LE(submit->begin, send->begin);
    EXPECT_LE(send->begin, enqueue->begin);
    EXPECT_LE(enqueue->begin, assign->begin);
    EXPECT_LE(assign->begin, arrive->begin);
    EXPECT_LE(arrive->begin, service->begin);
    EXPECT_LE(service->end, complete->begin);
  }
  EXPECT_GT(completed, 100u) << "experiment should complete plenty of sampled tasks";
  EXPECT_EQ(terminals, by_task.size());
}

// Every kind records every milestone, the push kinds included: the push
// program (or Sparrow's scheduler) records the enqueue and the assignment,
// the worker its exec spans. So no completed task is partial, processor
// sharing included.
TEST(TraceExperimentTest, AttributionTelescopesExactly) {
  using baselines::IntraNodePolicy;
  using cluster::SchedulerKind;
  const std::pair<SchedulerKind, IntraNodePolicy> runs[] = {
      {SchedulerKind::kDraconis, IntraNodePolicy::kFcfs},
      {SchedulerKind::kR2P2, IntraNodePolicy::kFcfs},
      {SchedulerKind::kRackSched, IntraNodePolicy::kFcfs},
      {SchedulerKind::kRackSched, IntraNodePolicy::kProcessorSharing},
      {SchedulerKind::kSparrow, IntraNodePolicy::kFcfs},
  };
  for (const auto& [kind, intra] : runs) {
    SCOPED_TRACE(std::string(cluster::SchedulerKindName(kind)) + " / intra-node policy " +
                 std::to_string(static_cast<int>(intra)));
    cluster::ExperimentConfig config = TracedConfig();
    config.scheduler = kind;
    config.racksched_intra_policy = intra;
    cluster::ExperimentResult result = cluster::RunExperiment(config);
    ASSERT_NE(result.trace, nullptr);
    const trace::AttributionReport report = trace::BuildAttribution(*result.trace);

    EXPECT_EQ(report.sampled_tasks, report.completed_tasks + report.censored_tasks);
    EXPECT_EQ(report.partial_timelines, 0u);
    EXPECT_EQ(report.tasks.size(), report.completed_tasks);
    EXPECT_GT(report.tasks.size(), 100u);

    for (const trace::TaskAttribution& task : report.tasks) {
      const trace::StageBreakdown& s = task.stages;
      EXPECT_GE(s.client, 0);
      EXPECT_GE(s.wire, 0);
      EXPECT_GE(s.scheduling, 0);
      EXPECT_GE(s.queue, 0);
      EXPECT_GE(s.executor, 0);
      // The telescoping invariant: stages sum *exactly* to the total.
      EXPECT_EQ(s.client + s.wire + s.scheduling + s.queue + s.executor, s.total);
      EXPECT_EQ(task.completed - task.first_submit, s.total);
    }
    EXPECT_EQ(report.total.count(), report.tasks.size());

    // Top-K slowest is sorted by total, descending.
    ASSERT_FALSE(report.slowest.empty());
    for (size_t i = 1; i < report.slowest.size(); ++i) {
      EXPECT_GE(report.tasks[report.slowest[i - 1]].stages.total,
                report.tasks[report.slowest[i]].stages.total);
    }
  }
}

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TraceExperimentTest, ChromeExportIsBalanced) {
  cluster::ExperimentResult result = cluster::RunExperiment(TracedConfig());
  ASSERT_NE(result.trace, nullptr);
  const std::string json = trace::RenderChromeTrace(*result.trace, "trace_test");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Every duration span opens and closes.
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""), CountOccurrences(json, "\"ph\": \"E\""));
  EXPECT_GT(CountOccurrences(json, "\"ph\": \"B\""), 0u);
  // Attribution JSON renders and self-identifies.
  const trace::AttributionReport report = trace::BuildAttribution(*result.trace);
  const std::string attribution =
      trace::RenderAttribution(report, *result.trace, "trace_test");
  EXPECT_NE(attribution.find("\"trace_attribution\""), std::string::npos);
  EXPECT_NE(attribution.find("\"top_slowest\""), std::string::npos);
}

TEST(TraceExperimentTest, DisabledTracingProducesNoRecorder) {
  cluster::ExperimentConfig config = TracedConfig();
  config.trace.enabled = false;
  cluster::ExperimentResult result = cluster::RunExperiment(config);
  EXPECT_EQ(result.trace, nullptr);
}

// ---------------------------------------------------------------------------
// §8.3 duplicate suppression: the timeline shows the task traced twice but
// completed once, with the duplicate notice suppressed after the first.
// ---------------------------------------------------------------------------

TEST(TraceFailureTest, TimeoutResubmissionTimelineShowsDuplicateSuppression) {
  cluster::TestbedConfig tbc;
  tbc.trace.enabled = true;
  tbc.trace.sample_period = 1;
  cluster::Testbed testbed(tbc);
  sim::Simulator& simulator = testbed.simulator();
  cluster::MetricsHub& metrics = *testbed.metrics();
  Recorder& recorder = *testbed.recorder();

  core::FcfsPolicy policy;
  core::DraconisProgram program(&policy, core::DraconisConfig{});
  program.SetRecorder(&recorder);
  p4::SwitchPipeline pipeline(testbed, &program, p4::PipelineConfig{});
  const net::NodeId switch_node = pipeline.node_id();

  cluster::ExecutorConfig ec;
  cluster::Executor executor(&testbed, ec);
  executor.Start(switch_node, 1);

  // A 500 us task with a 50 us client timeout (0.1x, clamped to the floor):
  // the resubmission fires while the first copy is still executing, so the
  // duplicate also runs and its completion notice must be suppressed.
  cluster::ClientConfig cc;
  cc.timeout_multiplier = 0.1;
  cluster::Client client(&testbed, cc);
  client.SetScheduler(switch_node);
  cluster::TaskSpec spec;
  spec.duration = FromMicros(500);
  client.SubmitJob({spec});
  simulator.RunUntil(FromMillis(20));
  recorder.FinalizeAt(simulator.Now());

  // The client-facing outcome: one logical completion, metrics deduped.
  EXPECT_EQ(client.completions(), 1u);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(metrics.e2e_delay().count(), 1u);
  EXPECT_GT(metrics.timeout_resubmissions(), 0u);
  EXPECT_GE(executor.tasks_executed(), 2u) << "the duplicate should also execute";

  // The timeline: sends on >= 2 distinct attempts, >= 1 resubmit marker,
  // exactly one kComplete, and every duplicate notice after it.
  std::set<int> send_attempts;
  std::vector<const SpanRecord*> completes;
  std::vector<const SpanRecord*> duplicates;
  size_t resubmits = 0;
  for (const SpanRecord& rec : recorder.records()) {
    switch (rec.kind) {
      case Kind::kClientSend:
        send_attempts.insert(rec.attempt);
        break;
      case Kind::kTimeoutResubmit:
        ++resubmits;
        break;
      case Kind::kComplete:
        completes.push_back(&rec);
        break;
      case Kind::kDuplicateComplete:
        duplicates.push_back(&rec);
        break;
      default:
        break;
    }
  }
  EXPECT_GE(send_attempts.size(), 2u);
  EXPECT_GE(resubmits, 1u);
  ASSERT_EQ(completes.size(), 1u);
  ASSERT_GE(duplicates.size(), 1u);
  for (const SpanRecord* dup : duplicates) {
    EXPECT_LT(completes[0]->begin, dup->begin)
        << "the accepted completion must precede every suppressed duplicate";
  }
  // The winning attempt is recorded on the completion.
  EXPECT_TRUE(send_attempts.count(completes[0]->attempt) > 0);
}

// ---------------------------------------------------------------------------
// Straggler hedging (docs/dag.md) on each worker model: two pull executors
// behind Draconis, a two-core RackSched worker (cFCFS and processor
// sharing), a two-slot R2P2 worker. Both replicas execute, but exactly one
// executor-service span is the accounted one (aux = 0) and only one replica
// reaches the terminal kComplete; the loser is marked cancelled. Each side runs twice: measured over the whole
// run, and with the measurement window closing while the duplicate runs.
// ---------------------------------------------------------------------------

TEST(TraceFailureTest, HedgeTimelineHasOneWinnerAndACancelledLoser) {
  enum class Side { kDraconis, kRackSched, kR2P2, kRackSchedPs };
  constexpr int kSides = 4;
  const TimeNs whole_run = cluster::TestbedConfig{}.horizon;
  const TimeNs mid_duplicate = FromMicros(260);
  for (int run = 0; run < 2 * kSides; ++run) {
    const auto side = static_cast<Side>(run % kSides);
    const TimeNs measure_end = run < kSides ? whole_run : mid_duplicate;
    SCOPED_TRACE("worker side " + std::to_string(static_cast<int>(side)) +
                 ", window end " + std::to_string(measure_end));
    cluster::TestbedConfig tbc;
    tbc.horizon = measure_end;
    tbc.trace.enabled = true;
    tbc.trace.sample_period = 1;
    cluster::Testbed testbed(tbc);
    sim::Simulator& simulator = testbed.simulator();
    cluster::MetricsHub& metrics = *testbed.metrics();
    Recorder& recorder = *testbed.recorder();

    // Two cores: the original replica occupies one while the hedge runs on
    // the other.
    core::FcfsPolicy policy;
    core::DraconisProgram draconis(&policy, core::DraconisConfig{});
    draconis.SetRecorder(&recorder);
    baselines::RackSchedProgram racksched(/*num_nodes=*/1, /*seed=*/7);
    baselines::R2P2Program r2p2(/*num_executors=*/2, /*jbsq_k=*/3);
    p4::SwitchProgram* programs[] = {&draconis, &racksched, &r2p2, &racksched};  // Side order
    p4::SwitchPipeline pipeline(testbed, programs[static_cast<int>(side)], p4::PipelineConfig{});
    const net::NodeId switch_node = pipeline.node_id();
    std::vector<std::unique_ptr<cluster::TaskRunner>> cores;
    // What a duplicate's core holds besides its service: the pickup, plus
    // RackSched's dispatch. Under sharing, the dispatcher holds the task
    // until it joins the pool, so the pool's cores hold only its service.
    TimeNs overhead = cluster::kPickupOverhead;
    switch (side) {
      case Side::kDraconis:
        for (TimeNs start : {1, 101}) {
          auto executor = std::make_unique<cluster::Executor>(&testbed, cluster::ExecutorConfig{});
          executor->Start(switch_node, start);
          cores.push_back(std::move(executor));
        }
        break;
      case Side::kRackSched:
        cores.push_back(std::make_unique<baselines::RackSchedWorker>(&testbed, 2, 0, switch_node));
        racksched.BindTarget(0, cores[0]->node_id());
        overhead += baselines::RackSchedWorker::kDispatchOverhead;
        break;
      case Side::kRackSchedPs:
        cores.push_back(std::make_unique<baselines::RackSchedWorker>(
            &testbed, 2, 0, switch_node, baselines::IntraNodePolicy::kProcessorSharing));
        racksched.BindTarget(0, cores[0]->node_id());
        overhead = 0;
        break;
      case Side::kR2P2:
        cores.push_back(std::make_unique<baselines::R2P2Worker>(&testbed, 2, 0, switch_node));
        r2p2.BindTarget(0, cores[0]->node_id());
        r2p2.BindTarget(1, cores[0]->node_id());
        break;
    }

    // A 5 ms straggler with a generous timeout (so the §8.3 timeout path
    // stays quiet); the hedge at 200 us re-declares a 100 us service, so the
    // duplicate (attempt 1) wins by miles.
    cluster::ClientConfig cc;
    cc.timeout_multiplier = 10.0;
    cluster::Client client(&testbed, cc);
    client.SetScheduler(switch_node);
    cluster::TaskSpec spec;
    spec.duration = FromMillis(5);
    client.SubmitJob({spec});
    bool hedged = false;
    simulator.ScheduleAt(FromMicros(200), [&] {
      hedged = client.HedgeTask(net::TaskId{0, 0, 0}, FromMicros(100));
    });
    simulator.RunUntil(FromMillis(50));
    recorder.FinalizeAt(simulator.Now());

    EXPECT_TRUE(hedged);
    EXPECT_EQ(client.completions(), 1u);
    EXPECT_EQ(client.outstanding(), 0u);
    EXPECT_EQ(metrics.hedges_launched(), 1u);
    EXPECT_EQ(metrics.cancellations(), 1u);
    EXPECT_EQ(metrics.hedge_wins(), 1u);
    EXPECT_EQ(metrics.e2e_delay().count(), 1u);
    uint64_t executed = 0;
    for (const auto& core : cores) {
      executed += core->tasks_executed();
    }
    EXPECT_EQ(executed, 2u) << "both replicas must actually execute";

    std::vector<const SpanRecord*> completes;
    std::vector<const SpanRecord*> services;
    std::vector<const SpanRecord*> launches;
    std::vector<const SpanRecord*> cancels;
    size_t duplicates = 0;
    for (const SpanRecord& rec : recorder.records()) {
      switch (rec.kind) {
        case Kind::kComplete:
          completes.push_back(&rec);
          break;
        case Kind::kExecService:
          services.push_back(&rec);
          break;
        case Kind::kHedgeLaunch:
          launches.push_back(&rec);
          break;
        case Kind::kHedgeCancel:
          cancels.push_back(&rec);
          break;
        case Kind::kDuplicateComplete:
          ++duplicates;
          break;
        default:
          break;
      }
    }

    // Exactly one replica reaches the terminal state: one kComplete, on the
    // hedge attempt, and the loser's late notice is a suppressed duplicate.
    ASSERT_EQ(completes.size(), 1u);
    EXPECT_EQ(completes[0]->attempt, 1u);
    EXPECT_EQ(duplicates, 1u);

    // Both service spans are traced, and exactly one carries aux = 0: the
    // first execution (the original, attempt 0). The race is decided by
    // *completion*, so the terminal kComplete rides the hedge attempt even
    // though its service span is the duplicate-marked one.
    ASSERT_EQ(services.size(), 2u);
    size_t accounted = 0;
    const SpanRecord* duplicate = nullptr;
    for (const SpanRecord* service : services) {
      if (service->aux == 0) {
        ++accounted;
        EXPECT_EQ(service->attempt, 0u);
      } else {
        duplicate = service;
      }
    }
    EXPECT_EQ(accounted, 1u);

    // Wasted work is the marginal replication cost: the duplicate's core
    // time from pickup to end (the 100 us service), not the original's 5 ms,
    // which was committed before the hedge existed. Like busy time, it is
    // clipped to the measurement window.
    ASSERT_NE(duplicate, nullptr);
    // (Processor sharing schedules a completion 1 ns late to absorb rounding.)
    EXPECT_EQ(duplicate->end - duplicate->begin,
              FromMicros(100) + (side == Side::kRackSchedPs ? 1 : 0));
    const TimeNs pickup = duplicate->begin - overhead;
    ASSERT_LT(pickup, mid_duplicate);
    ASSERT_GT(duplicate->end, mid_duplicate);
    EXPECT_EQ(metrics.wasted_busy(), std::min(duplicate->end, measure_end) - pickup);
    EXPECT_LE(metrics.wasted_busy(), metrics.total_busy());

    // One launch marker (detail = age at hedge) and one cancel marker naming
    // the losing attempt, with detail = 0 (a hedge loser, not an explicit
    // CancelTask).
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0]->detail, static_cast<uint64_t>(FromMicros(200)));
    ASSERT_EQ(cancels.size(), 1u);
    EXPECT_EQ(cancels[0]->attempt, 0u);
    EXPECT_EQ(cancels[0]->detail, 0u);
    EXPECT_LE(launches[0]->begin, completes[0]->begin);
  }
}

// ---------------------------------------------------------------------------
// §3.3 rehoming: the trace shows the control-plane re-point and the
// post-failover recovery, again with single-completion semantics.
// ---------------------------------------------------------------------------

TEST(TraceFailureTest, RehomingTimelineSpansSwitchFailover) {
  cluster::TestbedConfig tbc;
  tbc.trace.enabled = true;
  tbc.trace.sample_period = 1;
  cluster::Testbed testbed(tbc);
  sim::Simulator& simulator = testbed.simulator();
  net::Network& network = testbed.network();
  Recorder& recorder = *testbed.recorder();

  core::FcfsPolicy policy;
  core::DraconisConfig dc;
  core::DraconisProgram program_a(&policy, dc);
  core::DraconisProgram program_b(&policy, dc);
  program_a.SetRecorder(&recorder);
  program_b.SetRecorder(&recorder);
  p4::SwitchPipeline switch_a(testbed, &program_a, p4::PipelineConfig{});
  p4::SwitchPipeline switch_b(&simulator, &program_b, p4::PipelineConfig{});
  switch_b.SetRecorder(&recorder);
  const net::NodeId node_a = switch_a.node_id();
  const net::NodeId node_b = switch_b.AttachNetwork(&network);

  std::vector<std::unique_ptr<cluster::Executor>> executors;
  for (int i = 0; i < 4; ++i) {
    cluster::ExecutorConfig config;
    config.request_timeout = FromMicros(500);
    executors.push_back(std::make_unique<cluster::Executor>(&testbed, config));
    executors.back()->Start(node_a, 1 + i * 100);
  }
  cluster::ClientConfig cc;
  cc.timeout_multiplier = 3.0;
  cluster::Client client(&testbed, cc);
  client.SetScheduler(node_a);

  for (int burst = 0; burst < 10; ++burst) {
    simulator.ScheduleAt(1 + burst * FromMicros(500), [&] {
      client.SubmitJob(
          std::vector<cluster::TaskSpec>(16, cluster::TaskSpec{FromMicros(100), 0, 0, 0, 0}));
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
  recorder.FinalizeAt(simulator.Now());

  EXPECT_EQ(client.completions(), 160u);
  EXPECT_EQ(client.outstanding(), 0u);

  // One kRehome global record per executor, pointing at the standby.
  size_t rehomes = 0;
  std::set<uint32_t> rehomed_nodes;
  size_t resubmits = 0;
  for (const SpanRecord& rec : recorder.records()) {
    if (rec.kind == Kind::kRehome) {
      ++rehomes;
      EXPECT_EQ(rec.id, trace::kGlobalTaskId);
      EXPECT_EQ(rec.detail, static_cast<uint64_t>(node_b));
      rehomed_nodes.insert(rec.node);
    } else if (rec.kind == Kind::kTimeoutResubmit) {
      ++resubmits;
    }
  }
  EXPECT_EQ(rehomes, 4u);
  EXPECT_EQ(rehomed_nodes.size(), 4u);
  EXPECT_GT(resubmits, 0u) << "tasks parked in the dead switch must resubmit";

  // Every task completes exactly once in the trace, despite resubmissions,
  // and tasks resubmitted after the failover re-enter on the standby.
  std::map<uint32_t, size_t> completes_per_tid;
  size_t enqueues_on_b = 0;
  for (const SpanRecord& rec : recorder.records()) {
    if (rec.kind == Kind::kComplete) {
      completes_per_tid[rec.id.jid * 1000 + rec.id.tid] += 1;
    }
    if (rec.kind == Kind::kEnqueue && rec.node == node_b) {
      ++enqueues_on_b;
    }
  }
  EXPECT_EQ(completes_per_tid.size(), 160u);
  for (const auto& [key, count] : completes_per_tid) {
    EXPECT_EQ(count, 1u) << "task key " << key;
  }
  EXPECT_GT(enqueues_on_b, 0u);
}

// ---------------------------------------------------------------------------
// Injector-driven failover through RunExperiment: the outage renders as one
// kFaultWindow global span, and every rehome (executor fleet at promotion,
// clients through their own timeouts) is exactly one kRehome global record.
// ---------------------------------------------------------------------------

TEST(TraceFaultTest, FailoverExperimentEmitsFaultWindowAndRehomeSpans) {
  cluster::ExperimentConfig config = TracedConfig();
  const TimeNs failover_at = FromMillis(4);
  config.fault_plan.SchedulerFailover(failover_at);
  cluster::ExperimentResult result = cluster::RunExperiment(config);
  ASSERT_NE(result.trace, nullptr);

  std::vector<const SpanRecord*> windows;
  std::map<uint32_t, size_t> rehomes_per_node;
  for (const SpanRecord& rec : result.trace->records()) {
    if (rec.kind == Kind::kFaultWindow) {
      windows.push_back(&rec);
    } else if (rec.kind == Kind::kRehome) {
      EXPECT_TRUE(rec.id == trace::kGlobalTaskId);
      rehomes_per_node[rec.node] += 1;
    }
  }

  ASSERT_EQ(windows.size(), 1u);
  EXPECT_TRUE(windows[0]->id == trace::kGlobalTaskId);
  EXPECT_EQ(windows[0]->begin, failover_at);
  EXPECT_GT(windows[0]->end, windows[0]->begin) << "the outage band must have extent";

  // One kRehome per rehomed node: the whole executor fleet re-points at the
  // standby at promotion, and each client that hit its timeout streak flips
  // exactly once (the stale-timeout guard prevents ping-pong back to the
  // dead switch).
  const uint64_t expected =
      result.recovery.executor_rehomes + result.recovery.client_rehomes;
  EXPECT_GT(result.recovery.executor_rehomes, 0u);
  uint64_t total = 0;
  for (const auto& [node, count] : rehomes_per_node) {
    EXPECT_EQ(count, 1u) << "node " << node << " rehomed more than once";
    total += count;
  }
  EXPECT_EQ(total, expected);
  EXPECT_EQ(result.recovery.tasks_lost, 0u);
}

}  // namespace
}  // namespace draconis
