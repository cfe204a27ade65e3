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

#include <cstdint>
#include <unordered_map>
#include <vector>

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

  // Invoked when a packet is delivered to this endpoint. The packet is moved
  // in; the endpoint owns it from here.
  virtual void HandlePacket(Packet pkt) = 0;
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
  uint64_t seed = 1;
  // Seed of the fault-decision stream (drop-probability draws). Kept apart
  // from `seed` (the jitter stream) so installing fault rules never perturbs
  // the delivery times of surviving packets; 0 derives a default from `seed`.
  // Testbeds set it from SeedDomain::kFault.
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

  // Marks `node` as the switch so that endpoint-to-endpoint traffic that does
  // not terminate at the switch is charged two propagation hops.
  void SetSwitchNode(NodeId node) { switch_node_ = node; }

  // Multi-rack topology: additionally marks `node` as a switch for hop
  // accounting (every ToR is one edge hop from its rack), without displacing
  // the legacy primary switch set via SetSwitchNode.
  void AddSwitchNode(NodeId node) { switch_nodes_.push_back(node); }

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
  void Send(NodeId from, Packet pkt);

  // Send(from, pkt) after `delay` (>= 0), e.g. at a switch pass's egress.
  // The packet waits in the in-flight slab; Send's checks apply when it
  // leaves.
  void SendAfter(TimeNs delay, NodeId from, Packet pkt);

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

  uint64_t packets_delivered() const { return packets_delivered_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  // Packets in the in-flight slab: handed to Send/SendAfter, and neither
  // delivered nor dropped yet.
  size_t packets_in_flight() const { return in_flight_.size() - free_in_flight_.size(); }

  sim::Simulator* simulator() const { return simulator_; }

 private:
  struct Host {
    Endpoint* endpoint = nullptr;
    HostProfile profile;
    TimeNs busy_until = 0;  // single packet-processing core
    bool disconnected = false;
  };

  // The hop path. A packet is parked in the in-flight slab once, and the
  // events that carry it capture only {this, node, slot index}: 16 trivially
  // copyable bytes, which std::function stores inline, so a hop never
  // allocates.
  uint32_t Park(Packet pkt);
  void Unpark(uint32_t slot);
  // Send on a parked packet (applies the checks, drops and latency model).
  void Launch(NodeId from, uint32_t slot);
  // NIC arrival at dst, then hand-off to its endpoint.
  void Arrive(NodeId dst, uint32_t slot);
  void Deliver(NodeId dst, uint32_t slot);
  void DropParked(uint32_t slot);

  void RecordNetDrops(const Packet& pkt);
  bool IsSwitch(NodeId node) const;

  sim::Simulator* simulator_;
  NetworkConfig config_;
  Rng rng_;        // jitter stream
  Rng fault_rng_;  // drop-probability stream; only consumed by drop rules
  trace::Recorder* recorder_ = nullptr;
  std::vector<Host> hosts_;
  NodeId switch_node_ = kInvalidNode;
  std::vector<NodeId> switch_nodes_;  // additional ToR switches (multi-rack)
  std::vector<uint32_t> rack_of_;     // parallel to hosts_; all 0 by default
  std::vector<TimeNs> uplink_busy_;   // per-rack aggregation uplink server
  std::unordered_map<uint64_t, double> drop_rules_;  // (from << 32 | to) -> p
  std::vector<Packet> in_flight_;        // slab; free slots hold moved-from packets
  std::vector<uint32_t> free_in_flight_;  // free slab slots, reused LIFO
  TimeNs latency_penalty_ = 0;
  uint64_t packets_delivered_ = 0;
  uint64_t packets_dropped_ = 0;
  uint64_t cross_rack_packets_ = 0;
};

}  // namespace draconis::net

#endif  // DRACONIS_NET_NETWORK_H_
