// Additional p4-layer coverage: pipeline timing accounting, recirculation
// port service dynamics, ledger composition, and the guarantees programs
// rely on (serial pass ordering, counters under mixed traffic).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "net/network.h"
#include "p4/pipeline.h"
#include "p4/register.h"
#include "sim/simulator.h"

namespace draconis::p4 {
namespace {

class Sink : public net::Endpoint {
 public:
  void HandlePacket(net::Packet&& pkt) override { received.push_back(std::move(pkt)); }
  std::vector<net::Packet> received;
};

// A program whose behaviour is scripted per-opcode: kOther bounces back to
// the source after `bounce` recirculations; kProbe is dropped.
class Scripted : public SwitchProgram {
 public:
  explicit Scripted(uint32_t bounces) : bounces_(bounces) {}

  void OnPass(PassContext& ctx, net::Packet&& pkt) override {
    order.push_back(pkt.uid);
    if (after_pass) {
      after_pass(pkt.uid, ctx.pass_number());
    }
    if (pkt.op == net::OpCode::kProbe) {
      ctx.Drop(pkt, "probe");
      return;
    }
    if (ctx.pass_number() < bounces_) {
      ctx.Recirculate(std::move(pkt));
      return;
    }
    pkt.dst = pkt.src;
    ctx.Emit(std::move(pkt));
  }

  std::vector<uint32_t> order;
  // Called after each pass with the packet's uid and pass number (unset:
  // nothing).
  std::function<void(uint32_t, uint32_t)> after_pass;

 private:
  uint32_t bounces_;
};

struct Rig {
  explicit Rig(const PipelineConfig& cfg, uint32_t bounces = 0)
      : program(bounces), pipeline(&simulator, &program, cfg) {
    net::NetworkConfig nc;
    nc.max_jitter = 0;
    nc.ns_per_byte = 0.0;
    network = std::make_unique<net::Network>(&simulator, nc);
    switch_node = pipeline.AttachNetwork(network.get());
    node = network->Register(&sink, net::HostProfile::Wire());
  }

  void Send(net::OpCode op, uint32_t uid = 0) {
    net::Packet p;
    p.op = op;
    p.uid = uid;
    p.dst = switch_node;
    network->Send(node, std::move(p));
  }

  sim::Simulator simulator;
  Scripted program;
  SwitchPipeline pipeline;
  std::unique_ptr<net::Network> network;
  Sink sink;
  net::NodeId switch_node = net::kInvalidNode;
  net::NodeId node = net::kInvalidNode;
};

// Same-instant ingress runs in canonical (launch time, source port,
// per-link sequence) order, whatever order the arrival events were
// scheduled in.
TEST(PipelineExtraTest, SameInstantArrivalsServedInCanonicalOrder) {
  for (const bool low_port_first : {true, false}) {
    Rig rig(PipelineConfig{});
    Sink other;
    const net::NodeId low = rig.node;
    const net::NodeId high = rig.network->Register(&other, net::HostProfile::Wire());
    ASSERT_LT(low, high);
    auto send = [&rig](net::NodeId from, uint32_t uid) {
      net::Packet p;
      p.uid = uid;
      p.dst = rig.switch_node;
      rig.network->Send(from, std::move(p));
    };
    // Equal sizes, no jitter: all four arrive in the same nanosecond.
    if (low_port_first) {
      send(low, 1);
      send(low, 2);
      send(high, 3);
      send(high, 4);
    } else {
      send(high, 3);
      send(high, 4);
      send(low, 1);
      send(low, 2);
    }
    rig.simulator.RunAll();
    EXPECT_EQ(rig.program.order, (std::vector<uint32_t>{1, 2, 3, 4}));
    EXPECT_EQ(rig.pipeline.counters().passes, 4u);
  }
}

TEST(PipelineExtraTest, PacketsProcessedInArrivalOrder) {
  Rig rig(PipelineConfig{});
  for (uint32_t i = 0; i < 10; ++i) {
    rig.Send(net::OpCode::kOther, i);
  }
  rig.simulator.RunAll();
  ASSERT_EQ(rig.program.order.size(), 10u);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rig.program.order[i], i);
  }
}

TEST(PipelineExtraTest, RecirculationPortServesAtItsRate) {
  PipelineConfig cfg;
  cfg.pass_latency = 0;
  cfg.recirc_latency = 0;
  cfg.recirc_rate_pps = 1e6;  // 1 us service per recirculated packet
  cfg.recirc_queue_depth = 100;
  Rig rig(cfg, /*bounces=*/1);
  for (int i = 0; i < 10; ++i) {
    rig.Send(net::OpCode::kOther);
  }
  rig.simulator.RunAll();
  EXPECT_EQ(rig.sink.received.size(), 10u);
  // The ten packets all arrived ~simultaneously; the port spaced their
  // recirculations 1 us apart, so the run takes at least ~9 us.
  EXPECT_GE(rig.simulator.Now(), FromMicros(9));

  // A backlogged port with a latency: four passes in flight at once
  // re-ingress in the order they entered it, each its own packet. The
  // fabric packet 9 leaves the host the instant the first passes run (right
  // after them) and reaches the switch 1.1 us later, exactly when packet 2
  // re-ingresses: at that instant the two are served in IngressKey order,
  // which puts the fabric port ahead of the loopback port on the tied launch
  // time, although 2's re-ingress event was scheduled first.
  cfg.recirc_latency = 100;
  Rig backlogged(cfg, /*bounces=*/1);
  backlogged.program.after_pass = [&backlogged](uint32_t uid, uint32_t pass) {
    if (uid == 4 && pass == 0) {
      backlogged.Send(net::OpCode::kOther, 9);
    }
  };
  for (uint32_t uid = 1; uid <= 4; ++uid) {
    backlogged.Send(net::OpCode::kOther, uid);
  }
  backlogged.simulator.RunAll();
  EXPECT_EQ(backlogged.program.order, (std::vector<uint32_t>{1, 2, 3, 4, 1, 9, 2, 3, 4, 9}));
  std::vector<uint32_t> emitted;
  for (const net::Packet& pkt : backlogged.sink.received) {
    emitted.push_back(pkt.uid);
    EXPECT_EQ(pkt.pipeline_passes, 1u);
  }
  EXPECT_EQ(emitted, (std::vector<uint32_t>{1, 2, 3, 4, 9}));
  // The port serves one pass per microsecond from the first passes at
  // 1.1 us, so 9 takes the turn after 4's and leaves its second pass at
  // 5.2 us.
  EXPECT_EQ(backlogged.pipeline.counters().recirculations, 5u);
  EXPECT_EQ(backlogged.simulator.Now(), 1100 + 4 * 1000 + 100 + 1100);
}

TEST(PipelineExtraTest, CountersAreConsistentUnderMixedTraffic) {
  PipelineConfig cfg;
  cfg.recirc_rate_pps = 1e9;
  Rig rig(cfg, /*bounces=*/2);
  for (int i = 0; i < 6; ++i) {
    rig.Send(net::OpCode::kOther);
  }
  for (int i = 0; i < 4; ++i) {
    rig.Send(net::OpCode::kProbe);
  }
  rig.simulator.RunAll();
  const PipelineCounters& counters = rig.pipeline.counters();
  EXPECT_EQ(counters.packets_in, 10u);
  EXPECT_EQ(counters.recirculations, 12u);  // 6 packets x 2 bounces
  EXPECT_EQ(counters.passes, 10u + 12u);
  EXPECT_EQ(counters.emitted, 6u);
  EXPECT_EQ(counters.program_drops.at("probe"), 4u);
  EXPECT_EQ(counters.recirc_drops, 0u);
  EXPECT_NEAR(counters.RecirculationShare(), 12.0 / 22.0, 1e-9);
}

TEST(PipelineExtraTest, GuaranteedTrafficSurvivesPortSaturation) {
  class MixedRecirc : public SwitchProgram {
   public:
    void OnPass(PassContext& ctx, net::Packet&& pkt) override {
      if (ctx.pass_number() > 0) {
        pkt.dst = pkt.src;
        ctx.Emit(std::move(pkt));
        return;
      }
      // kRepair rides the lossless class; everything else best-effort.
      ctx.Recirculate(std::move(pkt), pkt.op == net::OpCode::kRepair);
    }
  };
  MixedRecirc program;
  sim::Simulator simulator;
  PipelineConfig cfg;
  cfg.recirc_rate_pps = 1e6;
  cfg.recirc_queue_depth = 2;
  SwitchPipeline pipeline(&simulator, &program, cfg);
  net::NetworkConfig nc;
  nc.max_jitter = 0;
  net::Network network(&simulator, nc);
  const net::NodeId sw = pipeline.AttachNetwork(&network);
  Sink sink;
  const net::NodeId node = network.Register(&sink, net::HostProfile::Wire());

  for (int i = 0; i < 20; ++i) {
    net::Packet best_effort;
    best_effort.op = net::OpCode::kOther;
    best_effort.dst = sw;
    network.Send(node, std::move(best_effort));
    net::Packet repair;
    repair.op = net::OpCode::kRepair;
    repair.dst = sw;
    network.Send(node, std::move(repair));
  }
  simulator.RunAll();

  size_t repairs_out = 0;
  for (const auto& pkt : sink.received) {
    repairs_out += pkt.op == net::OpCode::kRepair ? 1 : 0;
  }
  EXPECT_EQ(repairs_out, 20u) << "lossless-class packet was dropped";
  EXPECT_GT(pipeline.counters().recirc_drops, 0u) << "port never saturated";
}

TEST(PipelineExtraTest, LedgerComposesAcrossArrays) {
  ResourceLedger ledger;
  RegisterArray<uint64_t> a("a", 10, 0, &ledger, 8);
  RegisterArray<uint32_t> b("b", 5, 0, &ledger, 4);
  RegisterArray<uint8_t> c("c", 3, 0, &ledger, 1);
  EXPECT_EQ(ledger.total_bytes(), 80u + 20u + 3u);
  EXPECT_EQ(ledger.entries().size(), 3u);
}

TEST(PipelineExtraTest, UpdateOpIsSingleAccess) {
  RegisterArray<uint64_t> reg("r", 1, 5);
  PacketPass pass;
  const uint64_t old = reg.Update(pass, 0, [](uint64_t v) { return v * 2; });
  EXPECT_EQ(old, 5u);
  EXPECT_EQ(reg.ControlPlaneRead(0), 10u);
  EXPECT_THROW(reg.Read(pass, 0), draconis::CheckFailure);
}

}  // namespace
}  // namespace draconis::p4
