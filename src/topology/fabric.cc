#include "topology/fabric.h"

#include <utility>

#include "common/check.h"

namespace draconis::topology {

// ---------------------------------------------------------------------------
// SummaryExchange
// ---------------------------------------------------------------------------

SummaryExchange::SummaryExchange(net::Network* network, DepthDirectory* directory)
    : directory_(directory) {
  DRACONIS_CHECK(network != nullptr && directory != nullptr);
  node_id_ = network->Register(this, net::HostProfile::Wire());
}

void SummaryExchange::HandlePacket(net::Packet&& pkt) {
  if (pkt.op != net::OpCode::kQueueDepthSummary) {
    return;  // stray traffic; summaries are the only expected opcode
  }
  ++summaries_received_;
  // created_at is the generation time, so the recorded view is stale by
  // exactly the summary's flight time.
  directory_->Update(pkt.summary_rack, pkt.summary_depth, pkt.created_at);
}

// ---------------------------------------------------------------------------
// SummaryPublisher
// ---------------------------------------------------------------------------

SummaryPublisher::SummaryPublisher(sim::Simulator* simulator, net::Network* network, uint32_t rack,
                                   net::NodeId tor_node, DepthProbe probe, TimeNs period)
    : simulator_(simulator),
      network_(network),
      rack_(rack),
      tor_node_(tor_node),
      probe_(std::move(probe)),
      period_(period) {
  DRACONIS_CHECK(simulator != nullptr && network != nullptr && probe_ != nullptr);
  DRACONIS_CHECK(period > 0);
  timer_.Bind(simulator_, this, 0, 0);
}

void SummaryPublisher::Start(TimeNs first_at) { timer_.ScheduleAt(first_at); }

void SummaryPublisher::Retarget(net::NodeId tor_node, DepthProbe probe) {
  tor_node_ = tor_node;
  probe_ = std::move(probe);
}

void SummaryPublisher::OnEvent(uint32_t /*unused*/, uint32_t /*unused*/) {
  const uint64_t depth = probe_();
  if (local_directory_ != nullptr) {
    local_directory_->Update(rack_, depth, simulator_->Now());
  }
  for (net::NodeId subscriber : subscribers_) {
    net::Packet pkt;
    pkt.op = net::OpCode::kQueueDepthSummary;
    pkt.dst = subscriber;
    pkt.summary_rack = rack_;
    pkt.summary_depth = depth;
    // rack id + depth ride as payload so the summary pays a real (if tiny)
    // serialization delay.
    pkt.payload_bytes = 12;
    network_->Send(tor_node_, std::move(pkt));
    ++summaries_sent_;
  }
  timer_.ScheduleAfter(period_);
}

// ---------------------------------------------------------------------------
// SubmissionRouter
// ---------------------------------------------------------------------------

SubmissionRouter::SubmissionRouter(uint32_t home_rack, const std::vector<net::NodeId>* rack_tors,
                                   const DepthDirectory* directory, PlacementPolicy* policy)
    : home_rack_(home_rack), rack_tors_(rack_tors), directory_(directory), policy_(policy) {
  DRACONIS_CHECK(rack_tors != nullptr && directory != nullptr && policy != nullptr);
}

net::NodeId SubmissionRouter::Route(net::NodeId home_tor) {
  const uint32_t rack = policy_->ChooseRack(home_rack_, *directory_);
  if (rack == home_rack_) {
    ++routed_home_;
    return home_tor;
  }
  ++routed_cross_;
  return (*rack_tors_)[rack];
}

}  // namespace draconis::topology
