#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/testbed.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "trace/span.h"

namespace draconis::fault {
namespace {

using cluster::Testbed;
using cluster::TestbedConfig;

NodeRef Node(net::NodeId id) {
  return NodeRef{NodeRef::Role::kNode, static_cast<int32_t>(id)};
}

// ---------------------------------------------------------------------------
// FaultPlan builders and introspection
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, BuildersChainAndIntrospect) {
  FaultPlan plan;
  plan.LossyLink(FromMicros(10), FromMicros(20), 0.5, Node(1), Node(2))
      .NodeCrash(FromMicros(5), FromMicros(50), Node(3))
      .LatencyDegrade(FromMicros(30), FaultEvent::kNever, FromMicros(2));
  EXPECT_EQ(plan.size(), 3u);
  EXPECT_FALSE(plan.has_scheduler_failover());
  EXPECT_EQ(plan.failover_at(), FaultEvent::kNever);
  EXPECT_EQ(plan.first_onset(), FromMicros(5));
  // The latency event never clears, so it counts as cleared `settle` after
  // its 30 us onset, which beats the crash end.
  EXPECT_EQ(plan.last_clearance(FromMillis(1)), FromMicros(30) + FromMillis(1));
  EXPECT_EQ(plan.Validate(), "");

  plan.SchedulerFailover(FromMicros(100));
  EXPECT_TRUE(plan.has_scheduler_failover());
  EXPECT_EQ(plan.failover_at(), FromMicros(100));
  EXPECT_EQ(plan.Validate(), "");
}

TEST(FaultPlanTest, EmptyPlanIntrospection) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.first_onset(), FaultEvent::kNever);
  EXPECT_EQ(plan.last_clearance(FromMillis(1)), FaultEvent::kNever);
  EXPECT_EQ(plan.Validate(), "");
}

TEST(FaultPlanTest, ValidateRejectsBadRanges) {
  {
    FaultPlan plan;
    plan.LatencyDegrade(-1, FaultEvent::kNever, 100);
    EXPECT_NE(plan.Validate().find("start must be >= 0"), std::string::npos);
  }
  {
    FaultPlan plan;
    plan.NodeCrash(FromMicros(10), FromMicros(10), Node(1));
    EXPECT_NE(plan.Validate().find("end must be > start"), std::string::npos);
  }
  {
    FaultPlan plan;
    plan.LossyLink(0, FromMicros(1), 1.5, Node(1), Node(2));
    EXPECT_NE(plan.Validate().find("probability must be in [0, 1]"), std::string::npos);
  }
  {
    FaultPlan plan;
    plan.LatencyDegrade(0, FromMicros(1), 0);
    EXPECT_NE(plan.Validate().find("extra_latency must be > 0"), std::string::npos);
  }
  {
    FaultPlan plan;
    plan.SchedulerFailover(FromMicros(1)).SchedulerFailover(FromMicros(2));
    EXPECT_NE(plan.Validate().find("at most one scheduler_failover"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// JSON parsing and parse errors
// ---------------------------------------------------------------------------

TEST(FaultPlanJsonTest, ParsesEveryKind) {
  FaultPlan built;
  built.LossyLink(FromMicros(10), FromMicros(20), 0.25, NodeRef{NodeRef::Role::kScheduler, 0},
                  NodeRef{NodeRef::Role::kExecutor, NodeRef::kAllInstances})
      .NodeCrash(FromMicros(5), FaultEvent::kNever, NodeRef{NodeRef::Role::kClient, 1})
      .LatencyDegrade(FromMicros(30), FromMicros(40), FromMicros(2))
      .SchedulerFailover(FromMicros(100), FromMicros(200));
  const std::string text = R"({
    "schema_version": 1,
    "events": [
      {"kind": "lossy_link", "start": "10us", "end": 20000, "probability": 0.25,
       "src": {"role": "scheduler", "index": 0}, "dst": {"role": "executor", "index": -1}},
      {"kind": "node_crash", "start": 5000, "target": {"role": "client", "index": 1}},
      {"kind": "latency_degrade", "start": "30us", "end": "40us", "extra_latency": "2us"},
      {"kind": "scheduler_failover", "start": "100us", "end": "200us"}
    ]
  })";

  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::FromJson(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), built.size());
  for (size_t i = 0; i < built.size(); ++i) {
    const FaultEvent& a = built.events()[i];
    const FaultEvent& b = parsed.events()[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.start, b.start) << "event " << i;
    EXPECT_EQ(a.end, b.end) << "event " << i;
    EXPECT_DOUBLE_EQ(a.probability, b.probability) << "event " << i;
    EXPECT_EQ(a.extra_latency, b.extra_latency) << "event " << i;
    EXPECT_EQ(a.src.role, b.src.role) << "event " << i;
    EXPECT_EQ(a.src.index, b.src.index) << "event " << i;
    EXPECT_EQ(a.dst.role, b.dst.role) << "event " << i;
    EXPECT_EQ(a.dst.index, b.dst.index) << "event " << i;
    EXPECT_EQ(a.target.role, b.target.role) << "event " << i;
    EXPECT_EQ(a.target.index, b.target.index) << "event " << i;
  }
}

TEST(FaultPlanJsonTest, ParsesDurationStrings) {
  FaultPlan plan;
  std::string error;
  const std::string text = R"({
    "schema_version": 1,
    "name": "latency blip",
    "events": [
      {"kind": "latency_degrade", "start": "250us", "end": "1ms", "extra_latency": "5us"}
    ]
  })";
  ASSERT_TRUE(FaultPlan::FromJson(text, &plan, &error)) << error;
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.events()[0].start, FromMicros(250));
  EXPECT_EQ(plan.events()[0].end, FromMillis(1));
  EXPECT_EQ(plan.events()[0].extra_latency, FromMicros(5));
}

TEST(FaultPlanJsonTest, NullEndMeansNever) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::FromJson(
      R"({"events": [{"kind": "latency_degrade", "start": 0, "end": null,
                      "extra_latency": 100}]})",
      &plan, &error))
      << error;
  EXPECT_EQ(plan.events()[0].end, FaultEvent::kNever);
}

struct BadPlanCase {
  const char* text;
  const char* expected_error;  // substring
};

TEST(FaultPlanJsonTest, RejectsMalformedPlans) {
  const std::vector<BadPlanCase> cases = {
      {R"([1, 2])", "must be a JSON object"},
      {R"({"events": [], "bogus": 1})", "unknown top-level key \"bogus\""},
      {R"({"schema_version": 2, "events": []})", "unsupported fault plan schema_version"},
      {R"({"name": "no events"})", "needs an \"events\" array"},
      {R"({"events": [{"kind": "meteor_strike", "start": 0}]})", "kind must be one of"},
      {R"({"events": [{"kind": "scheduler_failover"}]})", "needs a start time"},
      {R"({"events": [{"kind": "scheduler_failover", "start": "fast"}]})",
       "integer nanoseconds or a duration string"},
      {R"({"events": [{"kind": "scheduler_failover", "start": 0, "probability": 1}]})",
       "unknown key \"probability\""},
      {R"({"events": [{"kind": "lossy_link", "start": 0, "probability": 1,
                       "src": {"role": "tor"}, "dst": {"role": "client"}}]})",
       "role must be one of"},
      {R"({"events": [{"kind": "lossy_link", "start": 0, "probability": 1,
                       "src": {"role": "node", "id": 3}, "dst": {"role": "client"}}]})",
       "unknown key \"id\""},
      {R"({"events": [{"kind": "lossy_link", "start": 0,
                       "src": {"role": "node"}, "dst": {"role": "client"}}]})",
       "needs a numeric probability"},
      {R"({"events": [{"kind": "node_crash", "start": 0}]})", "target must be an object"},
      {R"({"events": [{"kind": "latency_degrade", "start": 0}]})", "needs an extra_latency"},
      {R"({"events": [{"kind": "latency_degrade", "start": 0, "extra_latency": -5}]})",
       "extra_latency must be > 0"},
      // Integers are range-checked before any cast, never truncated or wrapped.
      {R"({"schema_version": 1.5, "events": []})", "unsupported fault plan schema_version"},
      {R"({"events": [{"kind": "scheduler_failover", "start": 10000000.5}]})",
       "start must be integer nanoseconds"},
      {R"({"events": [{"kind": "scheduler_failover", "start": 1e30}]})",
       "start must be integer nanoseconds"},
      {R"({"events": [{"kind": "node_crash", "start": 0,
                       "target": {"role": "node", "index": 4294967296}}]})",
       "index must be an integer"},
  };
  for (const BadPlanCase& c : cases) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::FromJson(c.text, &plan, &error)) << c.text;
    EXPECT_NE(error.find(c.expected_error), std::string::npos)
        << "input: " << c.text << "\nerror: " << error;
  }
}

TEST(FaultPlanJsonTest, CheckedInExamplePlanIsValid) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::FromJsonFile(DRACONIS_SOURCE_DIR "/bench/plans/failover.json", &plan,
                                      &error))
      << error;
  EXPECT_TRUE(plan.has_scheduler_failover());
  EXPECT_EQ(plan.Validate(), "");

  FaultPlan degraded;
  ASSERT_TRUE(FaultPlan::FromJsonFile(DRACONIS_SOURCE_DIR "/bench/plans/degraded.json",
                                      &degraded, &error))
      << error;
  ASSERT_EQ(degraded.size(), 3u);
  EXPECT_FALSE(degraded.has_scheduler_failover());
  const FaultEvent& lossy = degraded.events()[0];
  EXPECT_EQ(lossy.kind, EventKind::kLossyLink);
  EXPECT_EQ(lossy.src.role, NodeRef::Role::kClient);
  EXPECT_EQ(lossy.dst.role, NodeRef::Role::kScheduler);
  EXPECT_DOUBLE_EQ(lossy.probability, 0.02);
  EXPECT_EQ(degraded.events()[1].kind, EventKind::kNodeCrash);
  EXPECT_EQ(degraded.events()[1].target.index, 5);
  EXPECT_EQ(degraded.events()[2].kind, EventKind::kLatencyDegrade);
  EXPECT_EQ(degraded.events()[2].extra_latency, FromMicros(3));
  EXPECT_EQ(degraded.first_onset(), FromMillis(6));
  // Every event clears on its own, so the settle does not matter.
  EXPECT_EQ(degraded.last_clearance(FromMillis(5)), FromMillis(10));
}

TEST(FaultPlanJsonTest, FromJsonFileReportsMissingFile) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::FromJsonFile("/nonexistent/plan.json", &plan, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Injector against a tiny Testbed (raw node references)
// ---------------------------------------------------------------------------

class Probe : public net::Endpoint {
 public:
  void HandlePacket(net::Packet&&) override { ++received; }
  uint64_t received = 0;
};

struct InjectorFixture {
  explicit InjectorFixture(TestbedConfig config = TestbedConfig{}) : testbed(config) {
    src_id = testbed.network().Register(&src, net::HostProfile::Wire());
    dst_id = testbed.network().Register(&dst, net::HostProfile::Wire());
  }

  // One kNoop packet src -> dst at `at`.
  void SendAt(TimeNs at) {
    testbed.simulator().ScheduleAt(at, [this] {
      net::Packet pkt;
      pkt.op = net::OpCode::kOther;
      pkt.dst = dst_id;
      testbed.network().Send(src_id, std::move(pkt));
    });
  }

  Testbed testbed;
  Probe src;
  Probe dst;
  net::NodeId src_id = net::kInvalidNode;
  net::NodeId dst_id = net::kInvalidNode;
};

TEST(InjectorTest, CrashWindowDropsThenRestores) {
  InjectorFixture f;
  FaultPlan plan;
  plan.NodeCrash(FromMicros(10), FromMicros(30), Node(f.dst_id));
  Injector injector(&f.testbed, plan, InjectorHooks{});
  injector.Arm();

  f.SendAt(FromMicros(5));   // delivered before the crash
  f.SendAt(FromMicros(15));  // lost in the window
  f.SendAt(FromMicros(40));  // delivered after recovery
  f.testbed.simulator().RunAll();

  EXPECT_EQ(f.dst.received, 2u);
  EXPECT_EQ(f.testbed.network().packets_dropped(), 1u);
  EXPECT_FALSE(f.testbed.network().IsDisconnected(f.dst_id));
  EXPECT_EQ(injector.events_started(), 1u);
  EXPECT_EQ(injector.events_cleared(), 1u);
}

TEST(InjectorTest, LossyWindowDropsWithCertainty) {
  InjectorFixture f;
  FaultPlan plan;
  plan.LossyLink(FromMicros(10), FromMicros(30), 1.0, Node(f.src_id), Node(f.dst_id));
  Injector injector(&f.testbed, plan, InjectorHooks{});
  injector.Arm();

  f.SendAt(FromMicros(15));  // dropped, p = 1
  f.SendAt(FromMicros(40));  // rule removed at clearance
  f.testbed.simulator().RunAll();

  EXPECT_EQ(f.dst.received, 1u);
  EXPECT_EQ(f.testbed.network().packets_dropped(), 1u);
}

TEST(InjectorTest, LatencyDegradeWindowRestoresPenalty) {
  InjectorFixture f;
  FaultPlan plan;
  plan.LatencyDegrade(FromMicros(10), FromMicros(30), FromMicros(7));
  Injector injector(&f.testbed, plan, InjectorHooks{});
  injector.Arm();

  f.testbed.simulator().ScheduleAt(FromMicros(20), [&] {
    EXPECT_EQ(f.testbed.network().latency_penalty(), FromMicros(7));
  });
  f.testbed.simulator().RunAll();
  EXPECT_EQ(f.testbed.network().latency_penalty(), 0);
  EXPECT_EQ(injector.events_started(), 1u);
  EXPECT_EQ(injector.events_cleared(), 1u);
}

TEST(InjectorTest, NeverFiringPlanArmsPastHorizonWithoutEffect) {
  InjectorFixture f;
  FaultPlan plan;
  plan.LatencyDegrade(FromSeconds(100), FaultEvent::kNever, FromMicros(7));
  Injector injector(&f.testbed, plan, InjectorHooks{});
  injector.Arm();

  f.SendAt(FromMicros(5));
  f.testbed.simulator().RunUntil(f.testbed.horizon());
  EXPECT_EQ(f.dst.received, 1u);
  EXPECT_EQ(injector.events_started(), 0u);
  EXPECT_EQ(injector.events_cleared(), 0u);
}

TEST(InjectorTest, FailoverDisconnectsSchedulerAndFiresHook) {
  InjectorFixture f;
  FaultPlan plan;
  plan.SchedulerFailover(FromMicros(10));

  bool promoted = false;
  TimeNs promoted_at = -1;
  InjectorHooks hooks;
  hooks.resolve = [&](const NodeRef& ref) -> std::vector<net::NodeId> {
    if (ref.role == NodeRef::Role::kScheduler) {
      return {f.dst_id};
    }
    return {};
  };
  hooks.on_failover = [&] {
    promoted = true;
    promoted_at = f.testbed.simulator().Now();
    // The active scheduler is already off the fabric when the deployment
    // promotes its standby.
    EXPECT_TRUE(f.testbed.network().IsDisconnected(f.dst_id));
  };
  Injector injector(&f.testbed, plan, std::move(hooks));
  injector.Arm();

  f.SendAt(FromMicros(20));  // toward the dead scheduler: lost
  f.testbed.simulator().RunAll();

  EXPECT_TRUE(promoted);
  EXPECT_EQ(promoted_at, FromMicros(10));
  EXPECT_EQ(f.dst.received, 0u);
  EXPECT_TRUE(f.testbed.network().IsDisconnected(f.dst_id));
  EXPECT_EQ(injector.events_started(), 1u);
  EXPECT_EQ(injector.events_cleared(), 0u);  // a failover never clears
}

TEST(InjectorTest, RoleReferencesResolveThroughHook) {
  InjectorFixture f;
  FaultPlan plan;
  // Crash "executor 1" out of a two-instance fleet: only dst goes dark.
  plan.NodeCrash(FromMicros(10), FaultEvent::kNever, NodeRef{NodeRef::Role::kExecutor, 1});
  InjectorHooks hooks;
  hooks.resolve = [&](const NodeRef& ref) -> std::vector<net::NodeId> {
    if (ref.role == NodeRef::Role::kExecutor) {
      return {f.src_id, f.dst_id};
    }
    return {};
  };
  Injector injector(&f.testbed, plan, std::move(hooks));
  injector.Arm();
  f.testbed.simulator().RunUntil(FromMicros(20));
  EXPECT_FALSE(f.testbed.network().IsDisconnected(f.src_id));
  EXPECT_TRUE(f.testbed.network().IsDisconnected(f.dst_id));
}

TEST(InjectorTest, UnresolvableRoleIsANoOp) {
  InjectorFixture f;
  FaultPlan plan;
  plan.NodeCrash(FromMicros(10), FaultEvent::kNever, NodeRef{NodeRef::Role::kStandby, 0});
  Injector injector(&f.testbed, plan, InjectorHooks{});  // no resolve hook
  injector.Arm();
  f.SendAt(FromMicros(20));
  f.testbed.simulator().RunAll();
  EXPECT_EQ(f.dst.received, 1u);
  EXPECT_EQ(injector.events_started(), 1u);
}

TEST(InjectorTest, RecordsFaultWindowGlobalSpan) {
  TestbedConfig config;
  config.trace.enabled = true;
  config.trace.sample_period = 1;
  InjectorFixture f(config);
  FaultPlan plan;
  plan.NodeCrash(FromMicros(10), FromMicros(30), Node(f.dst_id));
  plan.LatencyDegrade(FromMicros(50), FaultEvent::kNever, FromMicros(1));
  Injector injector(&f.testbed, plan, InjectorHooks{});
  injector.Arm();
  f.testbed.simulator().RunUntil(FromMicros(100));

  ASSERT_NE(f.testbed.recorder(), nullptr);
  std::vector<trace::SpanRecord> windows;
  for (const trace::SpanRecord& rec : f.testbed.recorder()->records()) {
    if (rec.kind == trace::Kind::kFaultWindow) {
      windows.push_back(rec);
    }
  }
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].id, trace::kGlobalTaskId);
  EXPECT_EQ(windows[0].begin, FromMicros(10));
  EXPECT_EQ(windows[0].end, FromMicros(30));
  EXPECT_EQ(windows[0].node, f.dst_id);
  // The never-clearing window is clamped to the testbed horizon.
  EXPECT_EQ(windows[1].begin, FromMicros(50));
  EXPECT_EQ(windows[1].end, f.testbed.horizon());
}

}  // namespace
}  // namespace draconis::fault
