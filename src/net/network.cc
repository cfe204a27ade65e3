#include "net/network.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace draconis::net {

namespace {
uint64_t PairKey(NodeId from, NodeId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}
}  // namespace

Network::Network(sim::Simulator* simulator, const NetworkConfig& config)
    : simulator_(simulator),
      config_(config),
      rng_(config.seed),
      fault_rng_(config.fault_seed != 0 ? config.fault_seed
                                        : config.seed * 0x9E3779B97F4A7C15ULL + 3) {
  DRACONIS_CHECK(simulator != nullptr);
}

NodeId Network::Register(Endpoint* endpoint, const HostProfile& profile) {
  DRACONIS_CHECK(endpoint != nullptr);
  hosts_.push_back(Host{endpoint, profile, 0});
  rack_of_.push_back(0);
  return static_cast<NodeId>(hosts_.size() - 1);
}

void Network::SetNodeRack(NodeId node, uint32_t rack) {
  DRACONIS_CHECK(node < rack_of_.size());
  rack_of_[node] = rack;
  if (rack >= uplink_busy_.size()) {
    uplink_busy_.resize(rack + 1, 0);
  }
}

uint32_t Network::NodeRack(NodeId node) const {
  DRACONIS_CHECK(node < rack_of_.size());
  return rack_of_[node];
}

bool Network::IsSwitch(NodeId node) const {
  if (node == switch_node_) {
    return true;
  }
  for (NodeId s : switch_nodes_) {
    if (s == node) {
      return true;
    }
  }
  return false;
}

void Network::Send(NodeId from, Packet pkt) { Launch(from, Park(std::move(pkt))); }

void Network::SendAfter(TimeNs delay, NodeId from, Packet pkt) {
  const uint32_t slot = Park(std::move(pkt));
  simulator_->ScheduleAfter(delay, [this, from, slot] { Launch(from, slot); });
}

uint32_t Network::Park(Packet pkt) {
  if (free_in_flight_.empty()) {
    in_flight_.push_back(std::move(pkt));
    return static_cast<uint32_t>(in_flight_.size() - 1);
  }
  const uint32_t slot = free_in_flight_.back();
  free_in_flight_.pop_back();
  in_flight_[slot] = std::move(pkt);
  return slot;
}

void Network::Unpark(uint32_t slot) { free_in_flight_.push_back(slot); }

void Network::DropParked(uint32_t slot) {
  ++packets_dropped_;
  RecordNetDrops(in_flight_[slot]);
  Unpark(slot);
}

void Network::Launch(NodeId from, uint32_t slot) {
  // Nothing below parks a packet, so the slab (and this reference) stays put.
  Packet& pkt = in_flight_[slot];
  DRACONIS_CHECK_MSG(from < hosts_.size(), "unknown sender");
  DRACONIS_CHECK_MSG(pkt.dst < hosts_.size(), "unknown destination");
  pkt.src = from;
  if (pkt.created_at < 0) {
    pkt.created_at = simulator_->Now();
  }

  if (hosts_[from].disconnected || hosts_[pkt.dst].disconnected) {
    DropParked(slot);
    return;
  }
  if (!drop_rules_.empty()) {
    auto it = drop_rules_.find(PairKey(from, pkt.dst));
    if (it != drop_rules_.end() && fault_rng_.NextBool(it->second)) {
      DropParked(slot);
      return;
    }
  }

  Host& tx = hosts_[from];

  // Transmit-side CPU occupancy: the sender's core serializes its sends.
  const TimeNs now = simulator_->Now();
  tx.busy_until = std::max(tx.busy_until, now) + tx.profile.tx_cost;
  const TimeNs departs = tx.busy_until;

  const int hops = (IsSwitch(from) || IsSwitch(pkt.dst)) ? 1 : 2;
  const auto serialization =
      static_cast<TimeNs>(config_.ns_per_byte * static_cast<double>(pkt.WireSize()));

  // Two-tier model: endpoints in different racks route via the aggregation
  // tier — two extra tier hops plus queueing/serialization on the source
  // rack's uplink (a single busy server per rack). Same-rack traffic (the
  // only kind on an unconfigured fabric) pays nothing here.
  TimeNs tier_extra = 0;
  if (rack_of_[from] != rack_of_[pkt.dst]) {
    ++cross_rack_packets_;
    tier_extra = 2 * config_.aggregation_latency;
    if (config_.agg_ns_per_byte > 0.0) {
      TimeNs& uplink = uplink_busy_[rack_of_[from]];
      uplink = std::max(uplink, departs) +
               static_cast<TimeNs>(config_.agg_ns_per_byte * static_cast<double>(pkt.WireSize()));
      tier_extra += uplink - departs;
    }
  }

  const TimeNs jitter =
      config_.max_jitter > 0 ? static_cast<TimeNs>(rng_.NextBelow(config_.max_jitter)) : 0;
  const TimeNs arrives =
      departs + hops * config_.propagation + serialization + tier_extra + jitter + latency_penalty_;

  if (recorder_ != nullptr) {
    // One wire span per sampled task: send initiation -> fabric arrival.
    // detail carries the tx-occupancy delay; aux the opcode for attribution.
    for (const TaskInfo& t : pkt.tasks) {
      if (recorder_->Sampled(t.id)) {
        recorder_->Record(t.id, trace::Kind::kWire, now, arrives,
                          static_cast<uint64_t>(departs - now), pkt.dst,
                          t.meta.attempt, static_cast<uint16_t>(pkt.op));
      }
    }
  }

  // Receive-side CPU occupancy plus stack latency. The destination may have
  // crashed while the packet was in flight; a disconnected host cannot take
  // delivery, so `disconnected` is re-checked at NIC arrival and again at
  // hand-off (a crashed switch must not keep serving queued packets).
  const NodeId dst = pkt.dst;
  simulator_->ScheduleAt(arrives, [this, dst, slot] { Arrive(dst, slot); });
}

void Network::Arrive(NodeId dst, uint32_t slot) {
  Host& host = hosts_[dst];
  if (host.disconnected) {
    DropParked(slot);
    return;
  }
  const Packet& pkt = in_flight_[slot];
  const TimeNs now_rx = simulator_->Now();
  host.busy_until = std::max(host.busy_until, now_rx) + host.profile.rx_cost;
  const TimeNs deliver_at = host.busy_until + host.profile.stack_latency;
  if (recorder_ != nullptr && deliver_at > now_rx) {
    for (const TaskInfo& t : pkt.tasks) {
      if (recorder_->Sampled(t.id)) {
        recorder_->Record(t.id, trace::Kind::kHostRx, now_rx, deliver_at,
                          static_cast<uint64_t>(host.profile.rx_cost), dst,
                          t.meta.attempt, static_cast<uint16_t>(pkt.op));
      }
    }
  }
  // A zero-cost hop (the switch's Wire profile) delivers at the arrival
  // instant. If no other event is due now, a delivery scheduled here would
  // be the very next event, so run it inline: the global (at, seq) order is
  // unchanged, only the delivery's sequence number is never drawn.
  if (deliver_at == now_rx && !simulator_->AnyEventDueNow()) {
    Deliver(dst, slot);
    return;
  }
  simulator_->ScheduleAt(deliver_at, [this, dst, slot] { Deliver(dst, slot); });
}

void Network::Deliver(NodeId dst, uint32_t slot) {
  if (hosts_[dst].disconnected) {
    DropParked(slot);
    return;
  }
  ++packets_delivered_;
  Packet pkt = std::move(in_flight_[slot]);
  Unpark(slot);  // before the handler, which may send and reuse the slot
  hosts_[dst].endpoint->HandlePacket(std::move(pkt));
}

void Network::RecordNetDrops(const Packet& pkt) {
  if (recorder_ == nullptr) {
    return;
  }
  const TimeNs now = simulator_->Now();
  for (const TaskInfo& t : pkt.tasks) {
    if (recorder_->Sampled(t.id)) {
      recorder_->Record(t.id, trace::Kind::kNetDrop, now, now, 0, pkt.dst,
                        t.meta.attempt, static_cast<uint16_t>(pkt.op));
    }
  }
}

void Network::InjectDrop(NodeId from, NodeId to, double probability) {
  DRACONIS_CHECK(probability >= 0.0 && probability <= 1.0);
  drop_rules_[PairKey(from, to)] = probability;
}

void Network::RemoveDrop(NodeId from, NodeId to) { drop_rules_.erase(PairKey(from, to)); }

void Network::ClearDropRules() { drop_rules_.clear(); }

void Network::AddLatencyPenalty(TimeNs delta) {
  latency_penalty_ += delta;
  DRACONIS_CHECK_MSG(latency_penalty_ >= 0, "latency penalty went negative");
}

void Network::Disconnect(NodeId node) {
  DRACONIS_CHECK(node < hosts_.size());
  hosts_[node].disconnected = true;
}

void Network::Reconnect(NodeId node) {
  DRACONIS_CHECK(node < hosts_.size());
  hosts_[node].disconnected = false;
}

bool Network::IsDisconnected(NodeId node) const {
  DRACONIS_CHECK(node < hosts_.size());
  return hosts_[node].disconnected;
}

}  // namespace draconis::net
