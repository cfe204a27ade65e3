#include "net/network.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace draconis::net {

namespace {
// SplitMix64's output finalizer: a bijective 64-bit mix.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// A host scans this many opened peers before it switches to a dense table.
constexpr size_t kSparseLinks = 8;
}  // namespace

Network::Network(sim::Simulator* simulator, const NetworkConfig& config)
    : simulator_(simulator),
      config_(config),
      fault_seed_(config.fault_seed != 0 ? config.fault_seed
                                         : config.seed * 0x9E3779B97F4A7C15ULL + 3) {
  DRACONIS_CHECK(simulator != nullptr);
}

uint64_t Network::LinkSeed(uint64_t base, NodeId from, NodeId to) {
  return Mix64(base + Mix64(PairKey(from, to) + 0x9E3779B97F4A7C15ULL));
}

NodeId Network::Register(Endpoint* endpoint, const HostProfile& profile) {
  DRACONIS_CHECK(endpoint != nullptr);
  hosts_.push_back(Host{endpoint, profile});
  rack_of_.push_back(0);
  return static_cast<NodeId>(hosts_.size() - 1);
}

void Network::AddSwitchNode(NodeId node) {
  DRACONIS_CHECK(node < hosts_.size());
  hosts_[node].is_switch = true;
  MakeLinksDense(node);
}

std::vector<Network::Link>& Network::LinksOf(NodeId from) {
  if (from >= links_.size()) {
    links_.resize(hosts_.size());
  }
  return links_[from];
}

void Network::MakeLinksDense(NodeId from) {
  if (hosts_[from].dense_links) {
    return;
  }
  std::vector<Link>& links = LinksOf(from);
  std::vector<Link> dense(hosts_.size());
  for (const Link& link : links) {
    dense[link.peer] = link;
  }
  links.swap(dense);
  hosts_[from].dense_links = true;
  ++links_epoch_;
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

Network::Link& Network::LinkTo(NodeId from, NodeId to) {
  std::vector<Link>& links = LinksOf(from);
  if (hosts_[from].dense_links) {
    if (to >= links.size()) {
      links.resize(hosts_.size());
      ++links_epoch_;
    }
    Link& link = links[to];
    if (link.peer == kInvalidNode) {
      link = Link{Rng(LinkSeed(config_.seed, from, to)), 0, to};
    }
    return link;
  }
  for (Link& link : links) {
    if (link.peer == to) {
      return link;
    }
  }
  if (links.size() == kSparseLinks) {
    MakeLinksDense(from);
    return LinkTo(from, to);
  }
  if (links.size() == links.capacity()) {
    ++links_epoch_;  // the push below moves the list
  }
  links.push_back(Link{Rng(LinkSeed(config_.seed, from, to)), 0, to});
  return links.back();
}

void Network::Send(NodeId from, Packet&& pkt) {
  ++packets_sent_;
  Launch(from, Hold(std::move(pkt)));
}

void Network::SendAfter(TimeNs delay, NodeId from, Packet&& pkt) {
  ++packets_sent_;
  DRACONIS_CHECK(delay >= 0);
  simulator_->ScheduleAt(simulator_->Now() + delay, &launch_, from, Hold(std::move(pkt)));
}

uint32_t Network::Hold(Packet&& pkt) {
  uint32_t slot = 0;
  if (free_in_flight_.empty()) {
    slot = slab_slots_++;
    if ((slot >> kSlabChunkLog2) == in_flight_.size()) {
      in_flight_.push_back(std::make_unique<Packet[]>(kSlabChunk));
    }
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
  }
  Held(slot) = std::move(pkt);
  return slot;
}

void Network::Release(uint32_t slot) { free_in_flight_.push_back(slot); }

void Network::DropHeld(uint32_t slot) {
  ++packets_dropped_;
  RecordNetDrops(Held(slot));
  Release(slot);
}

Network::HopCost Network::CostOf(NodeId from, NodeId to, size_t wire_size) const {
  HopCost cost;
  cost.tx_cost = hosts_[from].profile.tx_cost;
  const int hops = (hosts_[from].is_switch || hosts_[to].is_switch) ? 1 : 2;
  cost.wire = hops * config_.propagation +
              static_cast<TimeNs>(config_.ns_per_byte * static_cast<double>(wire_size));
  cost.cross_rack = rack_of_[from] != rack_of_[to];
  if (cost.cross_rack) {
    cost.uplink = static_cast<TimeNs>(config_.agg_ns_per_byte * static_cast<double>(wire_size));
  }
  return cost;
}

// Inline: every eager hop runs it, and out of line it costs Launch a call
// with its HopCost and HopTiming passed through memory.
inline Network::HopTiming Network::LaunchTiming(NodeId from, const HopCost& cost, TimeNs now,
                                                TimeNs& tx_busy, Link& link) {
  // Transmit-side CPU occupancy: the sender's core serializes its sends.
  tx_busy = std::max(tx_busy, now) + cost.tx_cost;
  HopTiming t;
  t.departs = tx_busy;

  // Two-tier model: endpoints in different racks route via the aggregation
  // tier — two extra tier hops plus queueing/serialization on the source
  // rack's uplink (a single busy server per rack). Same-rack traffic (the
  // only kind on an unconfigured fabric) pays nothing here.
  TimeNs tier_extra = 0;
  if (cost.cross_rack) {
    ++cross_rack_packets_;
    tier_extra = 2 * config_.aggregation_latency;
    if (config_.agg_ns_per_byte > 0.0) {
      TimeNs& uplink = uplink_busy_[rack_of_[from]];
      uplink = std::max(uplink, t.departs) + cost.uplink;
      tier_extra += uplink - t.departs;
    }
  }

  t.arrives = WireArrival(t.departs, cost.wire + tier_extra + latency_penalty_,
                          config_.max_jitter, link);
  return t;
}

void Network::Launch(NodeId from, uint32_t slot) {
  Packet& pkt = Held(slot);
  DRACONIS_CHECK_MSG(from < hosts_.size(), "unknown sender");
  DRACONIS_CHECK_MSG(pkt.dst < hosts_.size(), "unknown destination");
  pkt.src = from;
  const TimeNs now = simulator_->Now();
  if (pkt.created_at < 0) {
    pkt.created_at = now;
  }

  if (hosts_[from].disconnected || hosts_[pkt.dst].disconnected) {
    DropHeld(slot);
    return;
  }
  if (!drop_rules_.empty()) {
    auto it = drop_rules_.find(PairKey(from, pkt.dst));
    if (it != drop_rules_.end()) {
      Rng& stream =
          drop_streams_.try_emplace(it->first, LinkSeed(fault_seed_, from, pkt.dst)).first->second;
      if (stream.NextBool(it->second)) {
        DropHeld(slot);
        return;
      }
    }
  }

  Link& link = LinkTo(from, pkt.dst);
  pkt.sent_at = now;
  pkt.link_seq = link.sent;
  const HopTiming t = LaunchTiming(from, CostOf(from, pkt.dst, pkt.WireSize()), now,
                                  hosts_[from].busy_until, link);

  if (recorder_ != nullptr) {
    // One wire span per sampled task: send initiation -> fabric arrival.
    // detail carries the tx-occupancy delay; aux the opcode for attribution.
    for (const TaskInfo& task : pkt.tasks) {
      trace::RecordTask(recorder_, task, trace::Kind::kWire, now, t.arrives,
                        static_cast<uint64_t>(t.departs - now), pkt.dst,
                        static_cast<uint16_t>(pkt.op));
    }
  }

  // Receive-side CPU occupancy plus stack latency. The destination may have
  // crashed while the packet was in flight; a disconnected host cannot take
  // delivery, so `disconnected` is re-checked at NIC arrival and again at
  // hand-off (a crashed switch must not keep serving queued packets).
  simulator_->ScheduleAt(t.arrives, &arrive_, pkt.dst, slot);
}

void Network::Arrive(NodeId dst, uint32_t slot) {
  Host& host = hosts_[dst];
  if (host.disconnected) {
    DropHeld(slot);
    return;
  }
  const Packet& pkt = Held(slot);
  const TimeNs now_rx = simulator_->Now();
  const TimeNs deliver_at = DeliveryTime(host.profile, now_rx, host.busy_until);
  if (recorder_ != nullptr && deliver_at > now_rx) {
    for (const TaskInfo& t : pkt.tasks) {
      trace::RecordTask(recorder_, t, trace::Kind::kHostRx, now_rx, deliver_at,
                        static_cast<uint64_t>(host.profile.rx_cost), dst,
                        static_cast<uint16_t>(pkt.op));
    }
  }
  // A zero-cost hop delivers at the arrival instant. A switch takes it at
  // once (its pipeline orders same-instant ingress canonically); any other
  // endpoint does when no other event is due now, because a delivery
  // scheduled here would then be the very next event: the global (at, seq)
  // order is unchanged, only the delivery's sequence number is never drawn.
  if (deliver_at == now_rx && (host.is_switch || !simulator_->AnyEventDueNow())) {
    Deliver(dst, slot);
    return;
  }
  simulator_->ScheduleAt(deliver_at, &deliver_, dst, slot);
}

void Network::Deliver(NodeId dst, uint32_t slot) {
  if (hosts_[dst].disconnected) {
    DropHeld(slot);
    return;
  }
  // The handler takes the packet in its slot, which is freed only when the
  // handler returns; until then it counts as in flight.
  hosts_[dst].endpoint->HandlePacket(std::move(Held(slot)));
  ++packets_delivered_;
  Release(slot);
}

void Network::CheckConservation() const {
  DRACONIS_CHECK_MSG(packets_sent_ == packets_delivered_ + packets_dropped_ + packets_in_flight(),
                     "packets sent != delivered + dropped + in flight");
}

void Network::CreditElided(uint64_t sent, uint64_t delivered) {
  packets_sent_ += sent;
  packets_delivered_ += delivered;
  DRACONIS_CHECK(elided_in_flight_ + sent >= delivered);
  elided_in_flight_ = elided_in_flight_ + sent - delivered;
}

void Network::Resume(Hop hop, TimeNs at, NodeId from, Packet&& pkt) {
  DRACONIS_CHECK_MSG(elided_in_flight_ > 0, "resumed a packet that was never credited");
  --elided_in_flight_;
  const NodeId dst = pkt.dst;
  const uint32_t slot = Hold(std::move(pkt));
  switch (hop) {
    case Hop::kLaunch:
      simulator_->ScheduleAt(at, &launch_, from, slot);
      return;
    case Hop::kArrive:
      simulator_->ScheduleAt(at, &arrive_, dst, slot);
      return;
    case Hop::kDeliver:
      simulator_->ScheduleAt(at, &deliver_, dst, slot);
      return;
  }
}

void Network::RecordNetDrops(const Packet& pkt) {
  const TimeNs now = simulator_->Now();
  for (const TaskInfo& t : pkt.tasks) {
    trace::RecordTask(recorder_, t, trace::Kind::kNetDrop, now, now, 0, pkt.dst,
                      static_cast<uint16_t>(pkt.op));
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
