// Runtime pieces of the multi-rack topology (docs/topology.md): the per-rack
// summary exchange (receives sibling queue-depth summaries), the per-rack
// summary publisher (broadcasts the local ToR depth as real packets on a
// timer), and the per-rack submission router clients consult per packet.
//
// All three are built by the deployment (core/draconis_deployment.cc) only
// when the topology has two or more racks; a 1-rack topology registers no
// extra endpoints and schedules no extra events, which is what keeps it
// bit-identical to the legacy single-switch layout.

#ifndef DRACONIS_TOPOLOGY_FABRIC_H_
#define DRACONIS_TOPOLOGY_FABRIC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "topology/placement.h"

namespace draconis::topology {

// Rack-local receiver for kQueueDepthSummary packets: updates this rack's
// DepthDirectory with the sender's (now stale by the flight time) depth.
class SummaryExchange : public net::Endpoint {
 public:
  // Registers itself on the fabric. The directory must outlive the exchange.
  SummaryExchange(net::Network* network, DepthDirectory* directory);

  net::NodeId node_id() const { return node_id_; }
  uint64_t summaries_received() const { return summaries_received_; }

  void HandlePacket(net::Packet&& pkt) override;

 private:
  DepthDirectory* directory_;
  net::NodeId node_id_;
  uint64_t summaries_received_ = 0;
};

// Periodically probes the local ToR queue depth, refreshes the local
// directory synchronously, and broadcasts the depth to every sibling
// exchange as real packets — so remote views pay serialization, the
// aggregation tier, and jitter like any other traffic.
class SummaryPublisher : public sim::EventSink {
 public:
  using DepthProbe = std::function<uint64_t()>;

  SummaryPublisher(sim::Simulator* simulator, net::Network* network, uint32_t rack,
                   net::NodeId tor_node, DepthProbe probe, TimeNs period);

  void AddSubscriber(net::NodeId exchange_node) { subscribers_.push_back(exchange_node); }
  void SetLocalDirectory(DepthDirectory* directory) { local_directory_ = directory; }

  // First publish fires at `first_at`; callers stagger racks so ticks don't
  // collide (ordering between same-time events is still deterministic, this
  // just keeps the fabric from seeing synchronized bursts).
  void Start(TimeNs first_at);

  // §3.3 ToR failover: re-point the publisher at the promoted standby (new
  // source address + new depth probe). Subscribers are unchanged.
  void Retarget(net::NodeId tor_node, DepthProbe probe);

  uint64_t summaries_sent() const { return summaries_sent_; }

  // sim::EventSink: the publish tick.
  void OnEvent(uint32_t /*unused*/, uint32_t /*unused*/) override;

 private:

  sim::Simulator* simulator_;
  net::Network* network_;
  uint32_t rack_;
  net::NodeId tor_node_;
  DepthProbe probe_;
  TimeNs period_;
  sim::Timer timer_;
  std::vector<net::NodeId> subscribers_;
  DepthDirectory* local_directory_ = nullptr;
  uint64_t summaries_sent_ = 0;
};

// Per-rack submission router: clients homed on this rack call Route once per
// job_submission packet. The ToR table is shared with the deployment, which
// swaps the entry for a failed ToR to its promoted standby.
class SubmissionRouter {
 public:
  SubmissionRouter(uint32_t home_rack, const std::vector<net::NodeId>* rack_tors,
                   const DepthDirectory* directory, PlacementPolicy* policy);

  // `home_tor` is the client's current scheduler address (it may have swapped
  // to the standby through timeout rehoming); it is returned verbatim for
  // home placements so the router never undoes a client-side rehome.
  net::NodeId Route(net::NodeId home_tor);

  uint32_t home_rack() const { return home_rack_; }
  uint64_t routed_home() const { return routed_home_; }
  uint64_t routed_cross() const { return routed_cross_; }

 private:
  uint32_t home_rack_;
  const std::vector<net::NodeId>* rack_tors_;
  const DepthDirectory* directory_;
  PlacementPolicy* policy_;
  uint64_t routed_home_ = 0;
  uint64_t routed_cross_ = 0;
};

}  // namespace draconis::topology

#endif  // DRACONIS_TOPOLOGY_FABRIC_H_
