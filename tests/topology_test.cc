// The multi-rack topology subsystem (docs/topology.md): the ClusterTopology
// description, the placement-policy determinism contract, the summary
// fabric, the rack-indexed placement seed domain, and the network's
// two-tier (aggregation) link model.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/testbed.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "topology/fabric.h"
#include "topology/placement.h"
#include "topology/topology.h"

namespace draconis::topology {
namespace {

// --- ClusterTopology ---------------------------------------------------------

TEST(ClusterTopologyTest, EmptyTopologyIsDisabledAndValid) {
  ClusterTopology topo;
  EXPECT_FALSE(topo.enabled());
  EXPECT_EQ(topo.num_racks(), 0u);
  EXPECT_EQ(topo.total_executors(), 0u);
  EXPECT_EQ(topo.Validate(), "");
}

TEST(ClusterTopologyTest, UniformBuildsIdenticalRacks) {
  const ClusterTopology topo = ClusterTopology::Uniform(4, 8, 16);
  EXPECT_TRUE(topo.enabled());
  EXPECT_EQ(topo.num_racks(), 4u);
  EXPECT_EQ(topo.total_workers(), 32u);
  EXPECT_EQ(topo.total_executors(), 4u * 8 * 16);
  EXPECT_EQ(topo.Validate(), "");
}

TEST(ClusterTopologyTest, ValidateRejectsDegenerateShapes) {
  ClusterTopology topo = ClusterTopology::Uniform(2, 4, 4);
  topo.racks[1].num_workers = 0;
  EXPECT_NE(topo.Validate().find("rack 1"), std::string::npos);

  topo = ClusterTopology::Uniform(2, 4, 4);
  topo.racks[0].executors_per_worker = 0;
  EXPECT_NE(topo.Validate().find("executors"), std::string::npos);

  topo = ClusterTopology::Uniform(2, 4, 4);
  topo.aggregation_latency = -1;
  EXPECT_NE(topo.Validate().find("aggregation_latency"), std::string::npos);

  topo = ClusterTopology::Uniform(2, 4, 4);
  topo.agg_ns_per_byte = -0.5;
  EXPECT_NE(topo.Validate().find("agg_ns_per_byte"), std::string::npos);

  topo = ClusterTopology::Uniform(2, 4, 4);
  topo.summary_period = 0;
  EXPECT_NE(topo.Validate().find("summary_period"), std::string::npos);
}

// --- Placement policies ------------------------------------------------------

TEST(PlacementTest, DepthDirectoryStartsEmptyAndUpdates) {
  DepthDirectory dir(3);
  EXPECT_EQ(dir.num_racks(), 3u);
  EXPECT_EQ(dir.rack(1).depth, 0u);
  EXPECT_EQ(dir.rack(1).updated_at, -1);
  dir.Update(1, 77, 1234);
  EXPECT_EQ(dir.rack(1).depth, 77u);
  EXPECT_EQ(dir.rack(1).updated_at, 1234);
  EXPECT_EQ(dir.rack(0).depth, 0u);
}

TEST(PlacementTest, HomeOnlyAlwaysReturnsHome) {
  HomeOnlyPlacement policy;
  DepthDirectory dir(4);
  dir.Update(2, 1000000, 0);  // even a drowning home rack stays home
  EXPECT_EQ(policy.ChooseRack(2, dir), 2u);
}

// The determinism contract: at or below the watermark ChooseRack returns
// home without drawing randomness, so two same-seed policies stay in
// lockstep however many fast-path calls are interleaved between overflows.
TEST(PlacementTest, PowerOfTwoDrawsNoRandomnessBelowWatermark) {
  const uint64_t kSeed = 9;
  PowerOfTwoPlacement busy(8, kSeed);
  PowerOfTwoPlacement idle(8, kSeed);

  DepthDirectory hot(5);
  hot.Update(0, 9, 0);  // home above watermark; siblings idle
  DepthDirectory cold(5);
  cold.Update(0, 8, 0);  // home at the watermark: fast path

  // `idle` burns thousands of fast-path calls; `busy` none.
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(idle.ChooseRack(0, cold), 0u);
  }
  // If the fast path drew randomness the two streams would have diverged.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(busy.ChooseRack(0, hot), idle.ChooseRack(0, hot)) << "call " << i;
  }
}

TEST(PlacementTest, PowerOfTwoWithTwoRacksForwardsToTheOnlySibling) {
  PowerOfTwoPlacement policy(4, 1);
  DepthDirectory dir(2);
  dir.Update(0, 100, 0);
  dir.Update(1, 2, 0);
  EXPECT_EQ(policy.ChooseRack(0, dir), 1u);
  dir.Update(1, 150, 0);  // sibling looks hotter than home: stay home
  EXPECT_EQ(policy.ChooseRack(0, dir), 0u);
}

TEST(PlacementTest, PowerOfTwoPrefersTheShallowerSiblingAndNeverSamplesHome) {
  PowerOfTwoPlacement policy(0, 33);
  DepthDirectory dir(4);
  dir.Update(1, 50, 0);  // home, above watermark 0
  dir.Update(0, 40, 0);
  dir.Update(2, 40, 0);
  dir.Update(3, 1, 0);
  int to_shallowest = 0;
  for (int i = 0; i < 200; ++i) {
    const uint32_t choice = policy.ChooseRack(1, dir);
    ASSERT_NE(choice, 1u);  // sampling skips the home rack
    if (choice == 3) {
      ++to_shallowest;
    }
  }
  // Rack 3 wins every sample that includes it: > half of 200 in expectation.
  EXPECT_GT(to_shallowest, 60);
}

TEST(PlacementTest, MakePlacementPolicySelectsTheConfiguredKind) {
  ClusterTopology topo = ClusterTopology::Uniform(3, 1, 1);
  topo.overflow_watermark = 0;
  DepthDirectory dir(3);
  dir.Update(0, 10, 0);
  dir.Update(1, 1, 0);
  dir.Update(2, 1, 0);

  topo.placement = PlacementKind::kHome;
  EXPECT_EQ(MakePlacementPolicy(topo, 1)->ChooseRack(0, dir), 0u);
  topo.placement = PlacementKind::kPowerOfTwo;
  EXPECT_NE(MakePlacementPolicy(topo, 1)->ChooseRack(0, dir), 0u);
}

// --- SubmissionRouter --------------------------------------------------------

TEST(RouterTest, HomePlacementReturnsTheCallerAddressVerbatim) {
  // The client may have rehomed to a promoted standby; the router must not
  // undo that by looking the home rack up in the ToR table.
  const std::vector<net::NodeId> tors = {10, 11};
  DepthDirectory dir(2);
  HomeOnlyPlacement policy;
  SubmissionRouter router(0, &tors, &dir, &policy);
  EXPECT_EQ(router.Route(99), 99u);  // 99 = rehomed standby, not tors[0]
  EXPECT_EQ(router.routed_home(), 1u);
  EXPECT_EQ(router.routed_cross(), 0u);
}

TEST(RouterTest, CrossPlacementUsesTheSharedTorTableAndCounts) {
  const uint64_t kWatermark = 4;
  std::vector<net::NodeId> tors = {10, 11};
  DepthDirectory dir(2);
  dir.Update(0, kWatermark + 1, 0);
  PowerOfTwoPlacement policy(kWatermark, 5);
  SubmissionRouter router(0, &tors, &dir, &policy);
  EXPECT_EQ(router.Route(10), 11u);
  EXPECT_EQ(router.routed_cross(), 1u);
  // The deployment swaps a failed ToR's entry to its standby in place; the
  // router picks the swap up on the next call.
  tors[1] = 42;
  EXPECT_EQ(router.Route(10), 42u);
  EXPECT_EQ(router.routed_cross(), 2u);
}

// --- The rack-indexed placement seed domain ----------------------------------

TEST(SeedDomainTest, PlacementSeedsArePinnedAndRackIndexed) {
  cluster::TestbedConfig tc;
  tc.seed = 42;
  cluster::Testbed testbed(tc);
  // Pinned constants: seed * 9973 + 257 + rack * 0x9E3779B97F4A7C15. Rack r's
  // stream is a pure function of (seed, r) — growing the cluster never
  // perturbs existing racks.
  EXPECT_EQ(testbed.SeedFor(cluster::SeedDomain::kPlacement, 0), 419123ull);
  EXPECT_EQ(testbed.SeedFor(cluster::SeedDomain::kPlacement, 1), 11400714819323617608ull);
  EXPECT_EQ(testbed.SeedFor(cluster::SeedDomain::kPlacement, 2), 4354685564937264477ull);
}

// Per-link jitter streams: kLink is the base, and the stream of the directed
// link (src, dst) is a pure function of (base, src, dst).
TEST(SeedDomainTest, LinkSeedsArePinnedAndDirected) {
  cluster::TestbedConfig tc;
  tc.seed = 42;
  cluster::Testbed testbed(tc);
  const uint64_t base = testbed.SeedFor(cluster::SeedDomain::kLink);
  EXPECT_EQ(base, 332971ull);  // seed * 7927 + 37
  EXPECT_EQ(net::Network::LinkSeed(base, 0, 1), 16730155655999140185ull);
  EXPECT_EQ(net::Network::LinkSeed(base, 1, 0), 8190547032669912707ull);
  EXPECT_EQ(net::Network::LinkSeed(base, 3, 0), 10920366540823165533ull);
}

TEST(SeedDomainTest, PlacementSeedsAreStableUnderClusterShapeChanges) {
  cluster::TestbedConfig small;
  small.seed = 7;
  small.num_workers = 4;
  cluster::TestbedConfig big;
  big.seed = 7;
  big.num_workers = 400;
  big.num_racks = 16;
  cluster::Testbed a(small);
  cluster::Testbed b(big);
  for (uint64_t rack = 0; rack < 16; ++rack) {
    EXPECT_EQ(a.SeedFor(cluster::SeedDomain::kPlacement, rack),
              b.SeedFor(cluster::SeedDomain::kPlacement, rack));
  }
  // Distinct per rack, and distinct from the other per-index domain.
  EXPECT_NE(a.SeedFor(cluster::SeedDomain::kPlacement, 0),
            a.SeedFor(cluster::SeedDomain::kPlacement, 1));
  EXPECT_NE(a.SeedFor(cluster::SeedDomain::kPlacement, 3),
            a.SeedFor(cluster::SeedDomain::kSparrow, 3));
}

// --- The two-tier network model ----------------------------------------------

class ArrivalRecorder : public net::Endpoint {
 public:
  explicit ArrivalRecorder(sim::Simulator* sim) : sim_(sim) {}
  void HandlePacket(net::Packet&& pkt) override {
    arrivals.push_back(sim_->Now());
    packets.push_back(std::move(pkt));
  }
  std::vector<TimeNs> arrivals;
  std::vector<net::Packet> packets;

 private:
  sim::Simulator* sim_;
};

net::NetworkConfig FlatNetConfig() {
  net::NetworkConfig c;
  c.propagation = 1000;
  c.ns_per_byte = 0.0;
  c.max_jitter = 0;
  return c;
}

TEST(TwoTierNetworkTest, CrossRackPacketsPayTwoAggregationHops) {
  sim::Simulator sim;
  net::NetworkConfig cfg = FlatNetConfig();
  cfg.aggregation_latency = 700;
  net::Network network(&sim, cfg);
  ArrivalRecorder same(&sim);
  ArrivalRecorder cross(&sim);
  const net::NodeId src = network.Register(&same, net::HostProfile::Wire());
  const net::NodeId dst_same = network.Register(&same, net::HostProfile::Wire());
  const net::NodeId dst_cross = network.Register(&cross, net::HostProfile::Wire());
  network.SetNodeRack(dst_cross, 1);

  net::Packet a;
  a.op = net::OpCode::kJobSubmission;
  a.dst = dst_same;
  network.Send(src, std::move(a));
  net::Packet b;
  b.op = net::OpCode::kJobSubmission;
  b.dst = dst_cross;
  network.Send(src, std::move(b));
  sim.RunAll();

  ASSERT_EQ(same.arrivals.size(), 1u);
  ASSERT_EQ(cross.arrivals.size(), 1u);
  EXPECT_EQ(cross.arrivals[0] - same.arrivals[0], 2 * cfg.aggregation_latency);
  EXPECT_EQ(network.cross_rack_packets(), 1u);
}

TEST(TwoTierNetworkTest, AggregationKnobsAreInertWhileEveryNodeIsInRackZero) {
  auto run = [](TimeNs agg_latency, double agg_ns_per_byte) {
    sim::Simulator sim;
    net::NetworkConfig cfg = FlatNetConfig();
    cfg.aggregation_latency = agg_latency;
    cfg.agg_ns_per_byte = agg_ns_per_byte;
    net::Network network(&sim, cfg);
    ArrivalRecorder rx(&sim);
    const net::NodeId src = network.Register(&rx, net::HostProfile::Wire());
    const net::NodeId dst = network.Register(&rx, net::HostProfile::Wire());
    net::Packet p;
    p.op = net::OpCode::kJobSubmission;
    p.dst = dst;
    network.Send(src, std::move(p));
    sim.RunAll();
    return rx.arrivals.at(0);
  };
  EXPECT_EQ(run(0, 0.0), run(FromMicros(50), 8.0));
}

TEST(TwoTierNetworkTest, UplinkSerializationIsABusyServerPerSourceRack) {
  sim::Simulator sim;
  net::NetworkConfig cfg = FlatNetConfig();
  cfg.agg_ns_per_byte = 1.0;  // 1 ns per wire byte on the rack uplink
  net::Network network(&sim, cfg);
  ArrivalRecorder rx(&sim);
  const net::NodeId src = network.Register(&rx, net::HostProfile::Wire());
  const net::NodeId dst = network.Register(&rx, net::HostProfile::Wire());
  network.SetNodeRack(dst, 1);

  size_t wire_size = 0;
  for (int i = 0; i < 2; ++i) {
    net::Packet p;
    p.op = net::OpCode::kJobSubmission;
    p.dst = dst;
    wire_size = p.WireSize();
    network.Send(src, std::move(p));
  }
  sim.RunAll();

  ASSERT_EQ(rx.arrivals.size(), 2u);
  // Both left the host at t=0; the second queued behind the first on the
  // shared uplink, so the arrivals are one serialization time apart.
  EXPECT_EQ(rx.arrivals[1] - rx.arrivals[0], static_cast<TimeNs>(wire_size));
}

// --- The summary fabric ------------------------------------------------------

TEST(SummaryFabricTest, PublisherRefreshesLocalDirectoryAndBroadcastsRealPackets) {
  sim::Simulator sim;
  net::Network network(&sim, FlatNetConfig());
  ArrivalRecorder tor(&sim);
  const net::NodeId tor_node = network.Register(&tor, net::HostProfile::Wire());

  DepthDirectory local(2);
  DepthDirectory remote(2);
  SummaryExchange exchange(&network, &remote);
  network.SetNodeRack(exchange.node_id(), 1);

  uint64_t depth = 40;
  SummaryPublisher publisher(&sim, &network, /*rack=*/0, tor_node,
                             [&depth] { return depth; }, /*period=*/FromMicros(10));
  publisher.SetLocalDirectory(&local);
  publisher.AddSubscriber(exchange.node_id());
  publisher.Start(/*first_at=*/100);

  sim.RunUntil(FromMicros(5));
  // First tick at t=100: local view updates synchronously...
  EXPECT_EQ(local.rack(0).depth, 40u);
  EXPECT_EQ(local.rack(0).updated_at, 100);
  // ...and the broadcast arrived as a real packet, so the remote view is
  // stale by the flight time but stamped with the generation time.
  ASSERT_EQ(exchange.summaries_received(), 1u);
  EXPECT_EQ(remote.rack(0).depth, 40u);
  EXPECT_EQ(remote.rack(0).updated_at, 100);

  depth = 75;
  sim.RunUntil(FromMicros(15));
  // Second tick at t=100 + 10us.
  EXPECT_EQ(local.rack(0).depth, 75u);
  EXPECT_EQ(local.rack(0).updated_at, 100 + FromMicros(10));
  EXPECT_EQ(remote.rack(0).depth, 75u);
  EXPECT_EQ(publisher.summaries_sent(), 2u);
}

TEST(SummaryFabricTest, ExchangeIgnoresStrayTraffic) {
  sim::Simulator sim;
  net::Network network(&sim, FlatNetConfig());
  DepthDirectory dir(2);
  SummaryExchange exchange(&network, &dir);
  ArrivalRecorder sender(&sim);
  const net::NodeId src = network.Register(&sender, net::HostProfile::Wire());

  net::Packet p;
  p.op = net::OpCode::kJobSubmission;
  p.dst = exchange.node_id();
  network.Send(src, std::move(p));
  sim.RunAll();
  EXPECT_EQ(exchange.summaries_received(), 0u);
  EXPECT_EQ(dir.rack(0).updated_at, -1);
}

TEST(SummaryFabricTest, RetargetSwitchesSourceAndProbe) {
  sim::Simulator sim;
  net::Network network(&sim, FlatNetConfig());
  ArrivalRecorder active(&sim);
  ArrivalRecorder standby(&sim);
  const net::NodeId active_node = network.Register(&active, net::HostProfile::Wire());
  const net::NodeId standby_node = network.Register(&standby, net::HostProfile::Wire());

  DepthDirectory remote(2);
  SummaryExchange exchange(&network, &remote);
  network.SetNodeRack(exchange.node_id(), 1);

  SummaryPublisher publisher(&sim, &network, /*rack=*/0, active_node, [] { return 5; },
                             /*period=*/FromMicros(10));
  publisher.AddSubscriber(exchange.node_id());
  publisher.Start(1);
  sim.RunUntil(FromMicros(5));
  EXPECT_EQ(remote.rack(0).depth, 5u);

  publisher.Retarget(standby_node, [] { return 11; });
  sim.RunUntil(FromMicros(15));
  EXPECT_EQ(remote.rack(0).depth, 11u);
  ASSERT_EQ(exchange.summaries_received(), 2u);
}

}  // namespace
}  // namespace draconis::topology
