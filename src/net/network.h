// Simulated network fabric.
//
// The fabric connects endpoints (clients, executors/workers, server
// schedulers, and the programmable switch) with a latency model:
//
//   delivery = tx host occupancy + propagation x hops + serialization
//            + jitter + rx host occupancy + stack latency
//
// Each endpoint has a HostProfile describing its packet-processing cost.
// This is how the paper's server-based schedulers are reproduced: a
// DPDK-based server spends ~0.45 us of CPU per packet (saturating around
// 1.1 M scheduling decisions/s), a sockets-based server ~3.1 us (~160 k/s),
// and the switch itself costs nothing here because its timing is modeled by
// the pipeline in src/p4/. Host occupancy is modeled as a single busy server
// per endpoint (M/D/1-style), which produces the queueing-delay explosions
// the paper reports when server schedulers saturate.

#ifndef DRACONIS_NET_NETWORK_H_
#define DRACONIS_NET_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/time.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "trace/recorder.h"

namespace draconis::net {

// Anything that can receive packets from the fabric.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  // Invoked when a packet is delivered to this endpoint. The packet stays in
  // the network's in-flight slab until the handler returns: the endpoint
  // owns it for the call and moves it out to keep it (into a queue, or back
  // into the fabric); no reference to it may outlive the call.
  virtual void HandlePacket(Packet&& pkt) = 0;
};

// Per-endpoint packet-processing characteristics.
struct HostProfile {
  TimeNs tx_cost = 0;        // CPU occupancy per transmitted packet
  TimeNs rx_cost = 0;        // CPU occupancy per received packet
  TimeNs stack_latency = 0;  // extra per-packet latency (kernel stack), no occupancy

  // A kernel-bypass endpoint (executors, clients, DPDK servers).
  static HostProfile Dpdk(TimeNs per_packet_cost) {
    return HostProfile{per_packet_cost, per_packet_cost, 0};
  }
  // A POSIX-sockets endpoint: slower per packet and with stack latency.
  static HostProfile Socket(TimeNs per_packet_cost, TimeNs stack_latency) {
    return HostProfile{per_packet_cost, per_packet_cost, stack_latency};
  }
  // The switch data plane: free at this layer (timed by the p4 pipeline).
  static HostProfile Wire() { return HostProfile{}; }

  bool operator==(const HostProfile&) const = default;
};

struct NetworkConfig {
  TimeNs propagation = TimeNs{1100};  // one hop: NIC + cable + forwarding
  double ns_per_byte = 0.08;          // 100 Gbps serialization
  TimeNs max_jitter = TimeNs{100};    // uniform [0, max_jitter)
  // Two-tier topology (src/topology/): a packet whose endpoints sit in
  // different racks pays two extra aggregation-tier hops of this latency
  // (ToR -> aggregation -> ToR) ...
  TimeNs aggregation_latency = 0;
  // ... plus serialization on the source rack's uplink, modeled as a single
  // busy server per rack; 0 = infinite uplink capacity. Both knobs are inert
  // while every node sits in rack 0 (the default), so single-rack runs are
  // bit-identical to the pre-topology fabric.
  double agg_ns_per_byte = 0.0;
  // Base of the per-link jitter streams: the k-th packet on the directed
  // link (src, dst) draws draw k of the SplitMix64 stream
  // LinkSeed(seed, src, dst), so its jitter depends on nothing but the
  // link's own traffic. Testbeds set it from SeedDomain::kLink.
  uint64_t seed = 1;
  // Base of the per-link fault-decision streams (drop-probability draws),
  // keyed the same way. Kept apart from `seed` so installing fault rules
  // never perturbs the delivery times of surviving packets; 0 derives a
  // default from `seed`. Testbeds set it from SeedDomain::kFault.
  uint64_t fault_seed = 0;
};

class Network {
 public:
  Network(sim::Simulator* simulator, const NetworkConfig& config);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers an endpoint and returns its address. The endpoint must outlive
  // the network.
  NodeId Register(Endpoint* endpoint, const HostProfile& profile);

  // Marks `node` as a switch: traffic to or from a switch crosses one edge
  // hop, endpoint-to-endpoint traffic two. Every ToR of a multi-rack
  // topology (and a standby) is a switch. A switch's outgoing links live in
  // a dense per-destination table, and its zero-cost arrivals are handed to
  // the endpoint at once: a SwitchPipeline orders same-instant ingress
  // itself (p4/pipeline.h).
  void AddSwitchNode(NodeId node);
  bool IsSwitch(NodeId node) const {
    DRACONIS_CHECK(node < hosts_.size());
    return hosts_[node].is_switch;
  }

  // Assigns `node` to a rack for the two-tier latency model; every node
  // starts in rack 0, so an unassigned fabric never pays aggregation costs.
  void SetNodeRack(NodeId node, uint32_t rack);
  uint32_t NodeRack(NodeId node) const;

  // Cross-rack packets sent so far (delivered or not).
  uint64_t cross_rack_packets() const { return cross_rack_packets_; }

  // Optional task-lifecycle recorder (nullable; never affects behaviour).
  void SetRecorder(trace::Recorder* recorder) { recorder_ = recorder; }

  // Sends a packet from `from` to `pkt.dst`, applying the latency model.
  // `pkt.src` is stamped with `from`.
  void Send(NodeId from, Packet&& pkt);

  // Send(from, pkt) after `delay` (>= 0), e.g. at a switch pass's egress.
  // The packet waits in the in-flight slab; Send's checks apply when it
  // leaves.
  void SendAfter(TimeNs delay, NodeId from, Packet&& pkt);

  // Fault injection: every packet from -> to is dropped with `probability`.
  // Probability draws come from the dedicated fault stream (fault_seed), so a
  // rule — even with p=0 — never perturbs the jitter of surviving packets.
  void InjectDrop(NodeId from, NodeId to, double probability);
  void RemoveDrop(NodeId from, NodeId to);
  void ClearDropRules();

  // Fault injection: the node fails hard — every packet to or from it is
  // dropped until Reconnect, including packets already in flight toward it
  // (re-checked at delivery time). Models the paper's §3.3 switch failure.
  void Disconnect(NodeId node);
  void Reconnect(NodeId node);
  bool IsDisconnected(NodeId node) const;

  // Fault injection: adds `delta` (may be negative to undo) to the delivery
  // latency of every subsequently sent packet. Degradation windows stack.
  void AddLatencyPenalty(TimeNs delta);
  TimeNs latency_penalty() const { return latency_penalty_; }
  TimeNs max_jitter() const { return config_.max_jitter; }

  // Packets handed to Send/SendAfter, delivered, dropped, and neither yet.
  // All four include the hops a fast-forward elided (CreditElided), so
  // packets_sent() == packets_delivered() + packets_dropped() +
  // packets_in_flight() holds at every instant.
  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_delivered() const { return packets_delivered_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  size_t packets_in_flight() const {
    return slab_slots_ - free_in_flight_.size() + elided_in_flight_;
  }
  // CHECKs the identity above.
  void CheckConservation() const;

  sim::Simulator* simulator() const { return simulator_; }

  // --- Per-link streams and the hop arithmetic ------------------------------
  //
  // The eager path (Send -> Launch -> Arrive -> Deliver) and the idle-poll
  // fast-forward (core/poll_roster.h) time a hop with the same two calls,
  // WireArrival and DeliveryTime. The fast-forward runs them on its own
  // copies of a parked poll train's link streams, and writes those back
  // when it materializes the train.

  // The stream seed of the directed link (from, to) under `base`: a mixing
  // hash, so no two links' streams overlap.
  static uint64_t LinkSeed(uint64_t base, NodeId from, NodeId to);

  // One directed link's sender-side state.
  struct Link {
    Rng jitter{0};
    uint64_t sent = 0;            // packets launched so far (the per-link seq)
    NodeId peer = kInvalidNode;   // kInvalidNode: not opened yet
  };
  // The (from -> to) link, opened with its seeded stream on first use.
  // O(1): a switch indexes a dense per-destination table, any other host
  // scans its few peers (and goes dense past a handful).
  Link& LinkTo(NodeId from, NodeId to);
  // Changes whenever opening a link may move others in memory: a Link&
  // from LinkTo stays valid while links_epoch() is unchanged.
  uint64_t links_epoch() const { return links_epoch_; }

  // The fixed part of a hop on (from -> to) for one packet size.
  struct HopCost {
    TimeNs tx_cost = 0;  // the sender's core occupancy
    TimeNs wire = 0;     // edge hops x propagation + serialization
    bool cross_rack = false;
    TimeNs uplink = 0;   // serialization on the source rack's uplink

    bool operator==(const HopCost&) const = default;
  };
  HopCost CostOf(NodeId from, NodeId to, size_t wire_size) const;

  // The wire half of a hop whose packet leaves its sender at `departs`:
  // NIC arrival at the destination after `fixed` (the wire, any two-tier
  // surcharge and the fault penalty) and `link`'s jitter draw, uniform in
  // [0, max_jitter). Advances `link` (one draw, one sequence number).
  static TimeNs WireArrival(TimeNs departs, TimeNs fixed, TimeNs max_jitter, Link& link) {
    ++link.sent;
    const TimeNs jitter =
        max_jitter > 0 ? static_cast<TimeNs>(link.jitter.NextBelow(max_jitter)) : 0;
    return departs + fixed + jitter;
  }
  // The receive half: NIC arrival at `now_rx` -> hand-off to an endpoint
  // with profile `rx`, after its core (`rx_busy`) and stack latency.
  static TimeNs DeliveryTime(const HostProfile& rx, TimeNs now_rx, TimeNs& rx_busy) {
    rx_busy = std::max(rx_busy, now_rx) + rx.rx_cost;
    return rx_busy + rx.stack_latency;
  }

  const HostProfile& profile(NodeId node) const { return hosts_.at(node).profile; }
  TimeNs busy_until(NodeId node) const { return hosts_.at(node).busy_until; }
  void set_busy_until(NodeId node, TimeNs t) { hosts_.at(node).busy_until = t; }
  bool HasDropRule(NodeId from, NodeId to) const {
    return !drop_rules_.empty() && drop_rules_.count(PairKey(from, to)) != 0;
  }

  // --- Fast-forward seam ----------------------------------------------------

  // Counts hops that a fast-forward ran as arithmetic: `sent` packets handed
  // to the fabric and `delivered` handed to their endpoint.
  void CreditElided(uint64_t sent, uint64_t delivered);

  // Re-creates an elided packet's pending hop at `at`: its Launch from `from`
  // (a switch egress), its NIC arrival at pkt.dst, or its hand-off to
  // pkt.dst. The packet was counted in flight by CreditElided.
  enum class Hop { kLaunch, kArrive, kDeliver };
  void Resume(Hop hop, TimeNs at, NodeId from, Packet&& pkt);

 private:
  struct Host {
    Endpoint* endpoint = nullptr;
    HostProfile profile;
    TimeNs busy_until = 0;  // single packet-processing core
    bool disconnected = false;
    bool is_switch = false;
    bool dense_links = false;  // links_[node] is indexed by destination
  };

  static uint64_t PairKey(NodeId from, NodeId to) {
    return (static_cast<uint64_t>(from) << 32) | to;
  }

  // The hop path. A packet is moved into the in-flight slab once, and the
  // event that carries each hop is a simulator event: the MemberSink of its
  // step (Launch, Arrive or Deliver) and the two words (node, slab slot). A
  // hop neither allocates nor goes through a std::function.
  uint32_t Hold(Packet&& pkt);
  Packet& Held(uint32_t slot) {
    return in_flight_[slot >> kSlabChunkLog2][slot & (kSlabChunk - 1)];
  }
  void Release(uint32_t slot);
  // Send on a held packet (applies the checks, drops and latency model).
  void Launch(NodeId from, uint32_t slot);
  struct HopTiming {
    TimeNs departs = 0;  // the sender's core releases the packet
    TimeNs arrives = 0;  // NIC arrival at the destination
  };
  // The transmit half of Launch at `now`: the sender's core (`tx_busy`)
  // serializes its sends, then the two-tier surcharge and WireArrival with
  // the fault penalty. Advances `tx_busy` and `link`.
  HopTiming LaunchTiming(NodeId from, const HopCost& cost, TimeNs now, TimeNs& tx_busy,
                         Link& link);
  // NIC arrival at dst, then hand-off to its endpoint.
  void Arrive(NodeId dst, uint32_t slot);
  void Deliver(NodeId dst, uint32_t slot);
  void DropHeld(uint32_t slot);

  void RecordNetDrops(const Packet& pkt);
  // The sender's outgoing link table, grown to cover it on first use.
  std::vector<Link>& LinksOf(NodeId from);
  void MakeLinksDense(NodeId from);

  sim::Simulator* simulator_;
  NetworkConfig config_;
  uint64_t fault_seed_;  // base of the per-link drop-probability streams
  trace::Recorder* recorder_ = nullptr;
  std::vector<Host> hosts_;
  // Outgoing links per sender: a short list of opened peers, or a table
  // indexed by destination (Host::dense_links). Kept apart from hosts_ and
  // grown on first send, so registering a large fleet stays cheap.
  std::vector<std::vector<Link>> links_;
  uint64_t links_epoch_ = 0;
  std::vector<uint32_t> rack_of_;     // parallel to hosts_; all 0 by default
  std::vector<TimeNs> uplink_busy_;   // per-rack aggregation uplink server
  std::unordered_map<uint64_t, double> drop_rules_;  // (from << 32 | to) -> p
  // Per-link drop-probability streams, opened by a link's first rule draw
  // and kept across rule changes.
  std::unordered_map<uint64_t, Rng> drop_streams_;
  // The in-flight slab, in chunks that never move: the endpoint's handler
  // takes its packet where it waits, and may send (and grow the slab)
  // meanwhile. Free slots hold moved-from packets and are reused LIFO.
  static constexpr uint32_t kSlabChunkLog2 = 6;
  static constexpr uint32_t kSlabChunk = uint32_t{1} << kSlabChunkLog2;
  std::vector<std::unique_ptr<Packet[]>> in_flight_;
  uint32_t slab_slots_ = 0;  // slots handed out so far
  std::vector<uint32_t> free_in_flight_;
  TimeNs latency_penalty_ = 0;
  uint64_t packets_sent_ = 0;
  uint64_t packets_delivered_ = 0;
  size_t elided_in_flight_ = 0;
  uint64_t packets_dropped_ = 0;
  uint64_t cross_rack_packets_ = 0;
  sim::MemberSink<Network, &Network::Launch> launch_{this};
  sim::MemberSink<Network, &Network::Arrive> arrive_{this};
  sim::MemberSink<Network, &Network::Deliver> deliver_{this};
};

}  // namespace draconis::net

#endif  // DRACONIS_NET_NETWORK_H_
