#include "core/poll_roster.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace draconis::core {

PollRoster::PollRoster(sim::Simulator* simulator, net::Network* network,
                       p4::SwitchPipeline* pipeline, DraconisProgram* program)
    : simulator_(simulator),
      network_(network),
      pipeline_(pipeline),
      program_(program),
      switch_node_(pipeline->node_id()) {
  DRACONIS_CHECK(Supports(*program));
  DRACONIS_CHECK_MSG(network->IsSwitch(switch_node_), "roster on a pipeline off the fabric");
  const net::HostProfile& wire = network->profile(switch_node_);
  // Step() times the switch side with an idle core and no stack latency.
  DRACONIS_CHECK(wire.tx_cost == 0 && wire.rx_cost == 0 && wire.stack_latency == 0);
  pipeline_->SetPassObserver(this);
  simulator_->AddOffQueueWork(this);
}

PollRoster::~PollRoster() {
  simulator_->RemoveOffQueueWork(this);
  pipeline_->SetPassObserver(nullptr);
}

bool PollRoster::TryPark(cluster::Executor* executor, TimeNs next_pull) {
  const net::NodeId node = executor->node_id();
  if (!program_->QueuesIdle() || network_->IsDisconnected(node) ||
      network_->IsDisconnected(switch_node_) || network_->HasDropRule(node, switch_node_) ||
      network_->HasDropRule(switch_node_, node) ||
      network_->NodeRack(node) != network_->NodeRack(switch_node_)) {
    return false;
  }
  Train t;
  t.executor = executor;
  t.node = node;
  t.poll = executor->poll_state();
  t.max_retry = executor->max_retry();
  t.host_busy = network_->busy_until(node);
  t.profile = network_->profile(node);
  t.up = network_->LinkTo(node, switch_node_);
  t.down = network_->LinkTo(switch_node_, node);
  // Every hop constant is looked up once, so a step touches only the train.
  t.up_cost = network_->CostOf(node, switch_node_, executor->MakeRequest().WireSize());
  t.down_cost =
      network_->CostOf(switch_node_, node, DraconisProgram::NoOpFor(node).WireSize());
  t.hop = Hop::kPull;
  t.at = next_pull;
  Push(std::move(t));
  return true;
}

void PollRoster::Step(Train& t, bool credit) {
  switch (t.hop) {
    case Hop::kPull: {
      t.poll.last_request_time = t.at;
      t.pulled_at = t.at;
      t.key = p4::IngressKey{t.at, t.node, t.up.sent};
      const net::Network::HopTiming timing =
          network_->LaunchTiming(t.node, t.up_cost, t.at, t.host_busy, t.up);
      if (credit) {
        network_->CreditElided(1, 0);
      }
      t.hop = Hop::kAtSwitch;
      t.at = timing.arrives;
      return;
    }
    case Hop::kAtSwitch:
      // The request is delivered, passes, and its no-op is emitted.
      if (credit) {
        network_->CreditElided(1, 1);
        pipeline_->CreditElidedPasses(1);
        program_->CreditElidedNoOps(1);
      }
      t.hop = Hop::kEgress;
      t.at += pipeline_->pass_latency();
      return;
    case Hop::kEgress: {
      TimeNs switch_core = 0;  // zero-cost Wire profile: never busy
      const net::Network::HopTiming timing =
          network_->LaunchTiming(switch_node_, t.down_cost, t.at, switch_core, t.down);
      t.egress_at = t.at;
      t.hop = Hop::kAtExecutor;
      t.at = timing.arrives;
      return;
    }
    case Hop::kAtExecutor:
      t.at = net::Network::DeliveryTime(t.profile, t.at, t.host_busy);
      t.hop = Hop::kHandOff;
      return;
    case Hop::kHandOff:
      if (credit) {
        network_->CreditElided(0, 1);
      }
      t.at += cluster::Executor::NextPollDelay(t.poll.rng, t.poll.retry_interval, t.max_retry);
      t.hop = Hop::kPull;
      return;
  }
}

void PollRoster::StepBefore(Train& t, TimeNs now, bool inclusive) {
  while (t.at < now || (inclusive && t.at == now)) {
    Step(t, /*credit=*/true);
  }
}

PollRoster::Due PollRoster::Peek(const Train& t, uint32_t slot) {
  if (t.hop == Hop::kAtSwitch) {
    return Due{t.at, t.key, slot};
  }
  Train ahead = t;
  while (ahead.hop != Hop::kAtSwitch) {
    Step(ahead, /*credit=*/false);
  }
  return Due{ahead.at, ahead.key, slot};
}

void PollRoster::AfterPass(const p4::IngressKey& key) {
  if (due_.empty() || program_->QueuesIdle()) {
    return;
  }
  const TimeNs now = simulator_->Now();
  // Parked arrivals the canonical order puts before this pass saw the queue
  // empty: credit them (and their trains' later hops before now).
  while (!due_.empty() &&
         (due_.front().at < now || (due_.front().at == now && due_.front().key < key))) {
    std::pop_heap(due_.begin(), due_.end(), ArrivesLater);
    Due& due = due_.back();
    Train& t = trains_[due.slot];
    while (t.at < now || (t.at == now && t.hop == Hop::kAtSwitch && t.key < key)) {
      Step(t, /*credit=*/true);
    }
    due = Peek(t, due.slot);
    std::push_heap(due_.begin(), due_.end(), ArrivesLater);
  }
  // Same-instant arrivals after this pass join its group, in key order.
  while (!due_.empty() && due_.front().at == now) {
    Train t = Pop();
    StepBefore(t, now, /*inclusive=*/false);
    DRACONIS_CHECK(t.hop == Hop::kAtSwitch && t.at == now);
    Restore(t);
    t.executor->Resume(t.poll, t.pulled_at + t.executor->request_timeout());
    network_->CreditElided(0, 1);
    pipeline_->AdmitElided(RequestOf(t));
  }
  // The earliest later parked arrival is the next parked poll that could see
  // a task. It stays parked if a poll already handed back arrives first:
  // that real pass comes earlier and runs this check again.
  while (!woken_.empty() && (woken_.front().at < now ||
                             (woken_.front().at == now && !(key < woken_.front().key)))) {
    std::pop_heap(woken_.begin(), woken_.end(), ArrivesLater);
    woken_.pop_back();
  }
  if (!due_.empty() && (woken_.empty() || ArrivesLater(woken_.front(), due_.front()))) {
    const Due next = due_.front();
    Train t = Pop();
    StepBefore(t, now, /*inclusive=*/false);
    if (t.hop == Hop::kPull || t.hop == Hop::kAtSwitch) {
      woken_.push_back(next);  // its pass at next.at is now a real event
      std::push_heap(woken_.begin(), woken_.end(), ArrivesLater);
    }
    Materialize(t);
  }
}

void PollRoster::SettleThrough(TimeNs until) {
  for (Due& due : due_) {
    Train& t = trains_[due.slot];
    StepBefore(t, until, /*inclusive=*/true);
    due = Peek(t, due.slot);
  }
  std::make_heap(due_.begin(), due_.end(), ArrivesLater);
}

void PollRoster::Discard() {
  const TimeNs now = simulator_->Now();
  for (const Due& due : due_) {
    StepBefore(trains_[due.slot], now, /*inclusive=*/false);
  }
  trains_.clear();
  free_slots_.clear();
  due_.clear();
  woken_.clear();
}

void PollRoster::WakeAll() {
  const TimeNs now = simulator_->Now();
  std::vector<Due> due;
  due.swap(due_);
  for (const Due& d : due) {
    Train& t = trains_[d.slot];
    StepBefore(t, now, /*inclusive=*/false);
    Materialize(t);
  }
  trains_.clear();
  free_slots_.clear();
  woken_.clear();  // a fault may drop or delay them
}

void PollRoster::Restore(const Train& t) {
  network_->LinkTo(t.node, switch_node_) = t.up;
  network_->LinkTo(switch_node_, t.node) = t.down;
  network_->set_busy_until(t.node, t.host_busy);
}

void PollRoster::Materialize(const Train& t) {
  DRACONIS_CHECK(t.at >= simulator_->Now());
  Restore(t);
  if (t.hop == Hop::kPull) {
    t.executor->Resume(t.poll, t.at);
    return;
  }
  // A request or its no-op is in flight: the pull's watchdog is armed.
  t.executor->Resume(t.poll, t.pulled_at + t.executor->request_timeout());
  switch (t.hop) {
    case Hop::kAtSwitch:
      network_->Resume(net::Network::Hop::kArrive, t.at, t.node, RequestOf(t));
      return;
    case Hop::kEgress:
      network_->Resume(net::Network::Hop::kLaunch, t.at, switch_node_,
                       DraconisProgram::NoOpFor(t.node));
      return;
    case Hop::kAtExecutor:
      network_->Resume(net::Network::Hop::kArrive, t.at, switch_node_, NoOpOf(t));
      return;
    case Hop::kHandOff:
      network_->Resume(net::Network::Hop::kDeliver, t.at, switch_node_, NoOpOf(t));
      return;
    case Hop::kPull:
      return;
  }
}

net::Packet PollRoster::RequestOf(const Train& t) const {
  // As Network::Launch stamped it at the pull.
  net::Packet pkt = t.executor->MakeRequest();
  pkt.src = t.node;
  pkt.created_at = t.pulled_at;
  pkt.sent_at = t.pulled_at;
  pkt.link_seq = t.key.seq;
  return pkt;
}

net::Packet PollRoster::NoOpOf(const Train& t) const {
  // As Network::Launch stamped it at the egress.
  net::Packet pkt = DraconisProgram::NoOpFor(t.node);
  pkt.src = switch_node_;
  pkt.created_at = t.egress_at;
  pkt.sent_at = t.egress_at;
  pkt.link_seq = t.down.sent - 1;
  return pkt;
}

bool PollRoster::ArrivesLater(const Due& a, const Due& b) {
  if (a.at != b.at) {
    return a.at > b.at;
  }
  return b.key < a.key;
}

void PollRoster::Push(Train t) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(trains_.size());
    trains_.push_back(std::move(t));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    trains_[slot] = std::move(t);
  }
  due_.push_back(Peek(trains_[slot], slot));
  std::push_heap(due_.begin(), due_.end(), ArrivesLater);
}

PollRoster::Train PollRoster::Pop() {
  std::pop_heap(due_.begin(), due_.end(), ArrivesLater);
  const uint32_t slot = due_.back().slot;
  due_.pop_back();
  free_slots_.push_back(slot);
  return trains_[slot];
}

}  // namespace draconis::core
