#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "common/rng.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace draconis::net {
namespace {

class Recorder : public Endpoint {
 public:
  void HandlePacket(Packet&& pkt) override { received.push_back(std::move(pkt)); }
  std::vector<Packet> received;
};

struct Fixture {
  Fixture() : network(&simulator, Config()) {}

  static NetworkConfig Config() {
    NetworkConfig c;
    c.propagation = 1000;
    c.ns_per_byte = 0.0;
    c.max_jitter = 0;  // deterministic timing for the assertions below
    return c;
  }

  sim::Simulator simulator;
  net::Network network;
};

TEST(PacketTest, WireSizeScalesWithTasks) {
  Packet p;
  p.op = OpCode::kJobSubmission;
  const size_t base = p.WireSize();
  p.tasks.resize(3);
  EXPECT_EQ(p.WireSize(), base + 3 * TaskInfo::kWireSize);
}

TEST(PacketTest, MaxTasksPerPacketFitsMtu) {
  const size_t n = MaxTasksPerPacket();
  EXPECT_GT(n, 0u);
  Packet p;
  p.tasks.resize(n);
  EXPECT_LE(p.WireSize(), kMtuBytes);
  p.tasks.resize(n + 1);
  EXPECT_GT(p.WireSize(), kMtuBytes);
}

TEST(PacketTest, TaskIdEqualityAndHash) {
  TaskId a{1, 2, 3};
  TaskId b{1, 2, 3};
  TaskId c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  TaskIdHash hash;
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));
}

TEST(PacketTest, OpCodeNamesAreDistinctive) {
  EXPECT_STREQ(OpCodeName(OpCode::kJobSubmission), "job_submission");
  EXPECT_STREQ(OpCodeName(OpCode::kTaskRequest), "task_request");
  EXPECT_STREQ(OpCodeName(OpCode::kRepair), "repair");
}

TEST(PacketTest, DescribeMentionsOpcode) {
  Packet p;
  p.op = OpCode::kSwapTask;
  EXPECT_NE(p.Describe().find("swap_task"), std::string::npos);
}

TEST(NetworkTest, DeliversPacketToDestination) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());

  Packet p;
  p.op = OpCode::kOther;
  p.dst = idb;
  f.network.Send(ida, std::move(p));
  f.simulator.RunAll();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].src, ida);
  EXPECT_TRUE(a.received.empty());
}

TEST(NetworkTest, NodeToNodeCostsTwoHopsWithoutSwitchInvolvement) {
  Fixture f;
  Recorder a;
  Recorder b;
  Recorder sw;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  const NodeId ids = f.network.Register(&sw, HostProfile::Wire());
  f.network.AddSwitchNode(ids);

  Packet p1;
  p1.dst = idb;
  f.network.Send(ida, std::move(p1));  // node -> node: 2 hops
  Packet p2;
  p2.dst = ids;
  f.network.Send(ida, std::move(p2));  // node -> switch: 1 hop

  f.simulator.RunUntil(1000);
  EXPECT_EQ(sw.received.size(), 1u);
  EXPECT_TRUE(b.received.empty());
  f.simulator.RunUntil(2000);
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, HostRxCostSerializesDeliveries) {
  Fixture f;
  Recorder src;
  Recorder busy;
  const NodeId ids = f.network.Register(&src, HostProfile::Wire());
  const NodeId idb = f.network.Register(&busy, HostProfile{0, 1000, 0});

  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.dst = idb;
    f.network.Send(ids, std::move(p));
  }
  // All arrive at the NIC at t=2000 (two hops, no switch registered), then
  // the single rx core spaces them 1000 ns apart.
  f.simulator.RunUntil(3000);
  EXPECT_EQ(busy.received.size(), 1u);
  f.simulator.RunUntil(4000);
  EXPECT_EQ(busy.received.size(), 2u);
  f.simulator.RunUntil(5000);
  EXPECT_EQ(busy.received.size(), 3u);
}

TEST(NetworkTest, StackLatencyAddsDelayWithoutOccupancy) {
  Fixture f;
  Recorder src;
  Recorder sock;
  const NodeId ids = f.network.Register(&src, HostProfile::Wire());
  const NodeId idk = f.network.Register(&sock, HostProfile{0, 0, 5000});

  Packet p;
  p.dst = idk;
  f.network.Send(ids, std::move(p));
  f.simulator.RunUntil(6000);
  EXPECT_TRUE(sock.received.empty());
  f.simulator.RunUntil(7000);
  EXPECT_EQ(sock.received.size(), 1u);
}

TEST(NetworkTest, TxCostSerializesSends) {
  Fixture f;
  Recorder slow_tx;
  Recorder sink;
  const NodeId idt = f.network.Register(&slow_tx, HostProfile{2000, 0, 0});
  const NodeId idr = f.network.Register(&sink, HostProfile::Wire());

  for (int i = 0; i < 2; ++i) {
    Packet p;
    p.dst = idr;
    f.network.Send(idt, std::move(p));
  }
  // First departs at 2000, arrives 4000; second departs 4000, arrives 6000.
  f.simulator.RunUntil(4500);
  EXPECT_EQ(sink.received.size(), 1u);
  f.simulator.RunUntil(6500);
  EXPECT_EQ(sink.received.size(), 2u);
}

TEST(NetworkTest, SerializationDelayScalesWithSize) {
  sim::Simulator simulator;
  NetworkConfig cfg;
  cfg.propagation = 0;
  cfg.ns_per_byte = 10.0;
  cfg.max_jitter = 0;
  Network network(&simulator, cfg);
  Recorder a;
  Recorder b;
  const NodeId ida = network.Register(&a, HostProfile::Wire());
  const NodeId idb = network.Register(&b, HostProfile::Wire());
  network.AddSwitchNode(idb);

  Packet p;
  p.dst = idb;
  p.tasks.resize(10);  // bigger packet
  const auto wire = static_cast<TimeNs>(10.0 * p.WireSize());
  network.Send(ida, std::move(p));
  simulator.RunUntil(wire - 1);
  EXPECT_TRUE(b.received.empty());
  simulator.RunUntil(wire + 1);
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, InjectDropLosesPackets) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.InjectDrop(ida, idb, 1.0);

  Packet p;
  p.dst = idb;
  f.network.Send(ida, std::move(p));
  f.simulator.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(f.network.packets_dropped(), 1u);
}

TEST(NetworkTest, DropRuleIsDirectional) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.InjectDrop(ida, idb, 1.0);

  Packet p;
  p.dst = ida;
  f.network.Send(idb, std::move(p));  // reverse direction unaffected
  f.simulator.RunAll();
  EXPECT_EQ(a.received.size(), 1u);
}

TEST(NetworkTest, ClearDropRulesRestoresDelivery) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.InjectDrop(ida, idb, 1.0);
  f.network.ClearDropRules();

  Packet p;
  p.dst = idb;
  f.network.Send(ida, std::move(p));
  f.simulator.RunAll();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, DisconnectDropsBothDirections) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.Disconnect(idb);
  EXPECT_TRUE(f.network.IsDisconnected(idb));

  Packet to_dead;
  to_dead.dst = idb;
  f.network.Send(ida, std::move(to_dead));
  Packet from_dead;
  from_dead.dst = ida;
  f.network.Send(idb, std::move(from_dead));
  f.simulator.RunAll();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(f.network.packets_dropped(), 2u);
}

TEST(NetworkTest, ReconnectRestoresDelivery) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.Disconnect(idb);
  f.network.Reconnect(idb);
  EXPECT_FALSE(f.network.IsDisconnected(idb));

  Packet p;
  p.dst = idb;
  f.network.Send(ida, std::move(p));
  f.simulator.RunAll();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, RemoveDropRestoresDelivery) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.InjectDrop(ida, idb, 1.0);
  f.network.RemoveDrop(ida, idb);

  Packet p;
  p.dst = idb;
  f.network.Send(ida, std::move(p));
  f.simulator.RunAll();
  EXPECT_EQ(b.received.size(), 1u);
}

// Delivery times with jitter enabled must be bit-identical with and without a
// p=0 drop rule installed: the rule's probability draws come from the
// dedicated fault stream, not the jitter stream.
TEST(NetworkTest, ZeroProbabilityDropRuleDoesNotPerturbJitter) {
  class TimedRecorder : public Endpoint {
   public:
    explicit TimedRecorder(sim::Simulator* simulator) : simulator_(simulator) {}
    void HandlePacket(Packet&&) override { times.push_back(simulator_->Now()); }
    std::vector<TimeNs> times;

   private:
    sim::Simulator* simulator_;
  };

  NetworkConfig cfg;
  cfg.max_jitter = 500;  // jitter stream active
  cfg.seed = 7;

  std::vector<TimeNs> baseline;
  for (const bool with_rule : {false, true}) {
    sim::Simulator simulator;
    Network network(&simulator, cfg);
    TimedRecorder a(&simulator);
    TimedRecorder b(&simulator);
    const NodeId ida = network.Register(&a, HostProfile::Wire());
    const NodeId idb = network.Register(&b, HostProfile::Wire());
    if (with_rule) {
      network.InjectDrop(ida, idb, 0.0);
    }
    for (int i = 0; i < 32; ++i) {
      Packet p;
      p.dst = idb;
      network.Send(ida, std::move(p));
    }
    simulator.RunAll();
    ASSERT_EQ(b.times.size(), 32u);
    if (!with_rule) {
      baseline = b.times;
    } else {
      EXPECT_EQ(b.times, baseline);
    }
  }
}

// Per-link streams: the k-th packet on a directed link draws the link's own
// k-th jitter value, so dropping a packet on one link leaves every other
// link's delivery times unchanged.
TEST(NetworkTest, DroppingOnOneLinkLeavesOtherLinksJitterUnchanged) {
  class TimedRecorder : public Endpoint {
   public:
    explicit TimedRecorder(sim::Simulator* simulator) : simulator_(simulator) {}
    void HandlePacket(Packet&& pkt) override {
      arrivals[pkt.src].push_back(simulator_->Now() - pkt.sent_at);
    }
    std::map<NodeId, std::vector<TimeNs>> arrivals;  // per sender, in order

   private:
    sim::Simulator* simulator_;
  };

  NetworkConfig cfg;
  cfg.max_jitter = 500;
  cfg.seed = 11;
  std::map<NodeId, std::vector<TimeNs>> baseline;
  for (const bool drop_one : {false, true}) {
    sim::Simulator simulator;
    Network network(&simulator, cfg);
    TimedRecorder a(&simulator);
    TimedRecorder b(&simulator);
    TimedRecorder c(&simulator);
    const NodeId ida = network.Register(&a, HostProfile::Wire());
    const NodeId idb = network.Register(&b, HostProfile::Wire());
    const NodeId idc = network.Register(&c, HostProfile::Wire());
    // Round i sends a->b, a->c and c->b; with drop_one, a->c's fifth packet
    // is lost to a certain-drop rule.
    for (int i = 0; i < 24; ++i) {
      simulator.ScheduleAt(i * 10'000, [&, i] {
        for (const auto& [from, to] :
             {std::pair{ida, idb}, std::pair{ida, idc}, std::pair{idc, idb}}) {
          if (drop_one && i == 5 && to == idc) {
            network.InjectDrop(ida, idc, 1.0);
          }
          Packet p;
          p.dst = to;
          network.Send(from, std::move(p));
          network.RemoveDrop(ida, idc);
        }
      });
    }
    simulator.RunAll();
    if (!drop_one) {
      baseline = b.arrivals;
      ASSERT_EQ(baseline.at(ida).size(), 24u);
      ASSERT_EQ(baseline.at(idc).size(), 24u);
      EXPECT_NE(baseline.at(ida), baseline.at(idc));  // the links draw apart
      continue;
    }
    EXPECT_EQ(network.packets_dropped(), 1u);
    EXPECT_EQ(c.arrivals.at(ida).size(), 23u);
    EXPECT_EQ(b.arrivals, baseline);  // a->b and c->b untouched
  }
}

// §3.3: a hard node failure also loses packets already in flight toward the
// node — disconnection is re-checked at delivery time.
TEST(NetworkTest, DisconnectDropsInFlightPackets) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());

  Packet p;
  p.dst = idb;
  f.network.Send(ida, std::move(p));  // arrives at t=2000 (two hops)
  f.simulator.ScheduleAt(1000, [&] { f.network.Disconnect(idb); });
  f.simulator.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(f.network.packets_dropped(), 1u);
  EXPECT_EQ(f.network.packets_delivered(), 0u);
}

TEST(NetworkTest, LatencyPenaltyStacksAndUndoes) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());

  f.network.AddLatencyPenalty(5000);
  Packet slow;
  slow.dst = idb;
  f.network.Send(ida, std::move(slow));  // 2000 ns base + 5000 penalty
  f.simulator.RunUntil(6999);
  EXPECT_TRUE(b.received.empty());
  f.simulator.RunUntil(7001);
  EXPECT_EQ(b.received.size(), 1u);

  f.network.AddLatencyPenalty(-5000);
  EXPECT_EQ(f.network.latency_penalty(), 0);
  Packet fast;
  fast.dst = idb;
  f.network.Send(ida, std::move(fast));
  f.simulator.RunAll();
  EXPECT_EQ(b.received.size(), 2u);
}

TEST(PacketTest, PayloadBytesCountTowardWireSize) {
  Packet p;
  p.op = OpCode::kParamData;
  const size_t base = p.WireSize();
  p.payload_bytes = 4096;
  EXPECT_EQ(p.WireSize(), base + 4096);
}

TEST(NetworkTest, CountsDeliveredPackets) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.dst = idb;
    f.network.Send(ida, std::move(p));
  }
  f.simulator.RunAll();
  EXPECT_EQ(f.network.packets_delivered(), 5u);
}

// Every packet handed to the fabric is delivered, dropped, or still parked
// in the in-flight slab, on each of the three drop paths: a drop rule at
// send, a disconnect before NIC arrival, and a disconnect between arrival
// and hand-off.
TEST(NetworkTest, PacketsAreConservedOnEveryDropPath) {
  Fixture f;
  Recorder a;
  Recorder b;
  Recorder slow;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  const NodeId ids = f.network.Register(&slow, HostProfile{0, 500, 0});  // rx 500 ns
  uint64_t sends = 0;
  auto send = [&](NodeId to) {
    Packet p;
    p.dst = to;
    f.network.Send(ida, std::move(p));
    ++sends;
  };
  auto conserved = [&] {
    return sends == f.network.packets_delivered() + f.network.packets_dropped() +
                        f.network.packets_in_flight();
  };

  // Drop rule: lost at send, never parked.
  f.network.InjectDrop(ida, idb, 1.0);
  send(idb);
  send(idb);
  EXPECT_EQ(f.network.packets_dropped(), 2u);
  EXPECT_EQ(f.network.packets_in_flight(), 0u);
  EXPECT_TRUE(conserved());
  f.network.ClearDropRules();

  // Disconnect before arrival: sent at 0, lost at the NIC at t=2000.
  send(idb);
  send(idb);
  EXPECT_EQ(f.network.packets_in_flight(), 2u);
  EXPECT_TRUE(conserved());
  f.simulator.ScheduleAt(1000, [&] { f.network.Disconnect(idb); });
  f.simulator.RunUntil(1500);
  EXPECT_EQ(f.network.packets_in_flight(), 2u);
  f.simulator.RunUntil(2500);
  EXPECT_EQ(f.network.packets_dropped(), 4u);
  EXPECT_EQ(f.network.packets_in_flight(), 0u);
  EXPECT_TRUE(conserved());
  f.network.Reconnect(idb);

  // Disconnect between arrival (t=4500) and hand-off (t=5000 and t=5500).
  send(ids);
  send(ids);
  f.simulator.RunUntil(4500);
  EXPECT_EQ(f.network.packets_in_flight(), 2u);
  EXPECT_TRUE(conserved());
  f.network.Disconnect(ids);
  f.simulator.RunAll();
  EXPECT_TRUE(slow.received.empty());
  EXPECT_EQ(f.network.packets_dropped(), 6u);
  EXPECT_EQ(f.network.packets_delivered(), 0u);
  EXPECT_EQ(f.network.packets_in_flight(), 0u);
  EXPECT_TRUE(conserved());
}

// The slab drains to empty after each burst and its slots are reused: a
// slot freed by a dropped task-carrying packet must not leak that packet's
// fields into the next packet parked there.
TEST(NetworkTest, InFlightSlabDrainsAndIsReusedAcrossBursts) {
  Fixture f;
  Recorder a;
  Recorder b;
  Recorder c;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  const NodeId idc = f.network.Register(&c, HostProfile::Wire());
  constexpr uint32_t kBurst = 16;
  for (uint32_t burst = 0; burst < 3; ++burst) {
    for (uint32_t i = 0; i < kBurst; ++i) {
      Packet p;
      p.uid = burst * 100 + i;
      p.dst = i % 2 == 0 ? idb : idc;
      if (burst < 2) {
        p.tasks.resize(3);
      }
      f.network.Send(ida, std::move(p));
    }
    EXPECT_EQ(f.network.packets_in_flight(), kBurst);
    if (burst == 1) {
      f.network.Disconnect(idc);  // burst 1's packets to c die at arrival
    }
    f.simulator.RunAll();
    f.network.Reconnect(idc);
    EXPECT_EQ(f.network.packets_in_flight(), 0u);
  }
  EXPECT_EQ(f.network.packets_dropped(), kBurst / 2);
  EXPECT_EQ(c.received.size(), kBurst);
  ASSERT_EQ(b.received.size(), 3 * kBurst / 2);
  for (uint32_t k = 0; k < b.received.size(); ++k) {
    const uint32_t burst = k / (kBurst / 2);
    EXPECT_EQ(b.received[k].uid, burst * 100 + 2 * (k % (kBurst / 2)));
    EXPECT_EQ(b.received[k].tasks.size(), burst < 2 ? 3u : 0u);
  }
}

// A zero-cost hop (Wire profile) delivers at its arrival instant. With
// another live event already due then, the delivery is scheduled behind it;
// with nothing else due (or only a cancelled key), it runs inline: the same
// order, one event fewer.
TEST(NetworkTest, ZeroCostDeliveryYieldsToEventsDueAtTheSameInstant) {
  // Logs each delivery as 1, and is the sink of the other event, logged as
  // its first word.
  class LoggingEndpoint : public Endpoint, public sim::EventSink {
   public:
    explicit LoggingEndpoint(std::vector<int>* log) : log_(log) {}
    void HandlePacket(Packet&&) override { log_->push_back(1); }
    void OnEvent(uint32_t a, uint32_t /*unused*/) override {
      log_->push_back(static_cast<int>(a));
    }

   private:
    std::vector<int>* log_;
  };
  struct Case {
    TimeNs other_at;
    bool cancel_other;
    std::vector<int> order;  // 1 = delivery, 2 = the other event
    uint64_t executed;
  };
  // The packet is sent at 0 and arrives at t=2000; the other event is
  // scheduled after the send, so its seq is later than the arrival's.
  const Case cases[] = {
      {2000, false, {2, 1}, 3},  // arrival, other, delivery
      {2001, false, {1, 2}, 2},  // arrival + inline delivery, other
      {2000, true, {1}, 1},      // the cancelled key does not hold it back
  };
  for (sim::QueueBackend backend : sim::AllQueueBackends()) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(sim::QueueBackendName(backend)) +
                   " other_at=" + std::to_string(c.other_at) +
                   " cancel=" + std::to_string(c.cancel_other));
      sim::Simulator simulator(backend);
      Network network(&simulator, Fixture::Config());
      std::vector<int> log;
      Recorder a;
      LoggingEndpoint b(&log);
      const NodeId ida = network.Register(&a, HostProfile::Wire());
      const NodeId idb = network.Register(&b, HostProfile::Wire());
      Packet p;
      p.dst = idb;
      network.Send(ida, std::move(p));
      sim::EventHandle other = simulator.ScheduleAt(c.other_at, &b, 2, 0, sim::kCancellable);
      if (c.cancel_other) {
        other.Cancel();
      }
      simulator.RunAll();
      EXPECT_EQ(log, c.order);
      EXPECT_EQ(simulator.executed_events(), c.executed);
      EXPECT_EQ(network.packets_delivered(), 1u);
    }
  }
}

// A task whose every checked field derives from (uid, k).
TaskInfo NumberedTask(uint32_t uid, uint32_t k) {
  TaskInfo t;
  t.id = TaskId{uid, 7, k};
  t.fn_id = k + 1;
  t.fn_par = uint64_t{uid} * 1000 + k;
  t.tprops = uid ^ k;
  t.meta.exec_duration = TimeNs{k} + 3;
  t.meta.attempt = uid;
  return t;
}

bool SameTask(const TaskInfo& a, const TaskInfo& b) {
  return a.id == b.id && a.fn_id == b.fn_id && a.fn_par == b.fn_par && a.tprops == b.tprops &&
         a.meta.exec_duration == b.meta.exec_duration && a.meta.attempt == b.meta.attempt &&
         a.meta.submit_time == b.meta.submit_time && a.meta.client == b.meta.client;
}

::testing::AssertionResult Matches(const TaskList& list, const std::vector<TaskInfo>& oracle) {
  if (list.size() != oracle.size() || list.empty() != oracle.empty() ||
      static_cast<size_t>(list.end() - list.begin()) != oracle.size()) {
    return ::testing::AssertionFailure()
           << "size " << list.size() << ", oracle " << oracle.size();
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (!SameTask(list[i], oracle[i]) || !SameTask(list.at(i), oracle[i])) {
      return ::testing::AssertionFailure() << "task " << i << " differs";
    }
  }
  if (!oracle.empty() && (!SameTask(list.front(), oracle.front()) ||
                          !SameTask(list.back(), oracle.back()))) {
    return ::testing::AssertionFailure() << "front/back differ";
  }
  return ::testing::AssertionSuccess();
}

// Random operation sequences against a std::vector oracle. The lists stay
// within a few tasks, so nearly every step crosses or straddles the
// inline/heap boundary: one task inline, more on the heap, and back.
TEST(TaskListTest, MatchesAVectorOracleAcrossTheInlineBoundary) {
  constexpr int kSteps = 400;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    uint32_t next = 0;
    auto fresh = [&] { return NumberedTask(static_cast<uint32_t>(seed), next++); };
    auto random_tasks = [&] {
      std::vector<TaskInfo> v(rng.NextBelow(5));
      for (TaskInfo& t : v) {
        t = fresh();
      }
      return v;
    };
    TaskList list;
    std::vector<TaskInfo> oracle;
    for (int step = 0; step < kSteps; ++step) {
      const uint64_t op = rng.NextBelow(13);
      SCOPED_TRACE("step " + std::to_string(step) + " op " + std::to_string(op));
      switch (op) {
        case 0:
        case 1: {
          const TaskInfo t = fresh();
          list.push_back(t);
          oracle.push_back(t);
          break;
        }
        case 2:  // a task of the list itself, which growth may move
          if (!oracle.empty()) {
            const size_t k = rng.NextBelow(oracle.size());
            list.push_back(list[k]);
            oracle.push_back(oracle[k]);
          }
          break;
        case 3:
          if (!oracle.empty()) {
            EXPECT_EQ(list.erase(list.begin()), list.begin());
            oracle.erase(oracle.begin());
          }
          break;
        case 4: {
          const std::vector<TaskInfo> v = random_tasks();
          list.assign(v.begin(), v.end());
          oracle = v;
          break;
        }
        case 5:  // a range of the list itself
          if (!oracle.empty()) {
            const size_t k = rng.NextBelow(oracle.size());
            list.assign(list.begin() + k, list.end());
            oracle.assign(oracle.begin() + static_cast<ptrdiff_t>(k), oracle.end());
          }
          break;
        case 6: {
          TaskList copy(list);
          EXPECT_TRUE(Matches(copy, oracle));
          TaskList moved(std::move(copy));
          EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
          EXPECT_TRUE(Matches(moved, oracle));
          list = std::move(moved);
          break;
        }
        case 7: {  // assignment from another list, by copy or by move
          const std::vector<TaskInfo> v = random_tasks();
          TaskList other;
          other.assign(v.begin(), v.end());
          if (rng.NextBelow(2) == 0) {
            list = other;
            EXPECT_TRUE(Matches(other, v));
          } else {
            list = std::move(other);
            EXPECT_TRUE(other.empty());  // NOLINT(bugprone-use-after-move)
            other.push_back(fresh());    // a moved-from list is reusable
            EXPECT_EQ(other.size(), 1u);
          }
          oracle = v;
          break;
        }
        case 8: {  // self-assignment, by copy and by move
          TaskList& self = list;
          list = self;
          EXPECT_TRUE(Matches(list, oracle));
          list = std::move(self);
          break;
        }
        case 9:
          list.clear();
          oracle.clear();
          break;
        case 10: {
          const size_t n = rng.NextBelow(5);
          list.resize(n);
          oracle.resize(n);
          break;
        }
        case 11: {
          const TaskInfo t = fresh();
          list = {t};
          oracle = {t};
          break;
        }
        default:
          list.reserve(rng.NextBelow(6));
          break;
      }
      ASSERT_TRUE(Matches(list, oracle));
    }
  }
}

// Every task of `p` is NumberedTask(p.uid, k), and p.jid says how many.
bool Intact(const Packet& p) {
  if (p.tasks.size() != p.jid) {
    return false;
  }
  for (uint32_t k = 0; k < p.jid; ++k) {
    if (!SameTask(p.tasks[k], NumberedTask(p.uid, k))) {
      return false;
    }
  }
  return true;
}

// An endpoint sends a burst that grows the in-flight slab while a delivered
// packet is still its handler's parameter, then keeps the packet in a queue
// (as a push worker may keep an assignment) while later bursts grow the
// slab again. The handler's packet waits in its slab slot until the handler
// returns, so neither the growth nor the burst's new slots may touch it;
// forwarded later, the kept packets and every burst packet arrive intact.
TEST(NetworkTest, KeptPacketSurvivesSlabGrowthWhileItIsHeld) {
  constexpr uint32_t kBurst = 100;  // more than a slab chunk
  class Keeper : public Endpoint {
   public:
    void HandlePacket(Packet&& pkt) override {
      for (uint32_t i = 0; i < kBurst; ++i) {
        Packet p;
        p.dst = sink;
        p.uid = next_uid++;
        p.jid = 1;
        p.tasks.push_back(NumberedTask(p.uid, 0));
        network->Send(self, std::move(p));
      }
      network->CheckConservation();
      intact_at_handoff.push_back(Intact(pkt));
      kept.push_back(std::move(pkt));
    }
    Network* network = nullptr;
    NodeId self = kInvalidNode;
    NodeId sink = kInvalidNode;
    uint32_t next_uid = 100;
    std::vector<bool> intact_at_handoff;
    std::deque<Packet> kept;
  };

  Fixture f;
  Recorder a;
  Recorder sink;
  Keeper keeper;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId ids = f.network.Register(&sink, HostProfile::Wire());
  keeper.network = &f.network;
  keeper.self = f.network.Register(&keeper, HostProfile::Wire());
  keeper.sink = ids;

  // One task inline, then five on the heap, delivered 1 us apart.
  const uint32_t kept_tasks[] = {1, 5};
  for (uint32_t uid = 1; uid <= 2; ++uid) {
    f.simulator.ScheduleAt((uid - 1) * 1000, [&f, &keeper, ida, uid, &kept_tasks] {
      Packet p;
      p.dst = keeper.self;
      p.uid = uid;
      p.jid = kept_tasks[uid - 1];
      for (uint32_t k = 0; k < p.jid; ++k) {
        p.tasks.push_back(NumberedTask(uid, k));
      }
      f.network.Send(ida, std::move(p));
    });
  }

  // Both delivered (t = 2000, 3000), both bursts launched, none landed.
  f.simulator.RunUntil(3500);
  ASSERT_EQ(keeper.kept.size(), 2u);
  EXPECT_EQ(keeper.intact_at_handoff, std::vector<bool>({true, true}));
  EXPECT_EQ(f.network.packets_in_flight(), 2 * kBurst);
  f.network.CheckConservation();
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_EQ(keeper.kept[i].uid, i + 1);
    EXPECT_TRUE(Intact(keeper.kept[i])) << "kept packet " << i;
  }

  // Forward the kept packets out of the queue while the bursts are in flight.
  while (!keeper.kept.empty()) {
    keeper.kept.front().dst = ids;
    f.network.Send(keeper.self, std::move(keeper.kept.front()));
    keeper.kept.pop_front();
  }
  f.simulator.RunAll();
  f.network.CheckConservation();
  EXPECT_EQ(f.network.packets_in_flight(), 0u);
  EXPECT_EQ(f.network.packets_dropped(), 0u);
  ASSERT_EQ(sink.received.size(), 2 * kBurst + 2);
  size_t kept_seen = 0;
  for (const Packet& p : sink.received) {
    kept_seen += p.uid < 100 ? 1 : 0;
    EXPECT_TRUE(Intact(p)) << "packet " << p.uid;
  }
  EXPECT_EQ(kept_seen, 2u);
}

}  // namespace
}  // namespace draconis::net
