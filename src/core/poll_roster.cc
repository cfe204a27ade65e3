#include "core/poll_roster.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace draconis::core {

namespace {

// The woken_ order: latest first, so the earliest sits at the back.
bool ArrivesLater(const std::pair<TimeNs, p4::IngressKey>& a,
                  const std::pair<TimeNs, p4::IngressKey>& b) {
  if (a.first != b.first) {
    return a.first > b.first;
  }
  return b.second < a.second;
}

}  // namespace

PollRoster::PollRoster(sim::Simulator* simulator, net::Network* network,
                       p4::SwitchPipeline* pipeline, DraconisProgram* program)
    : simulator_(simulator),
      network_(network),
      pipeline_(pipeline),
      program_(program),
      switch_node_(pipeline->node_id()),
      pass_latency_(pipeline->pass_latency()) {
  DRACONIS_CHECK(Supports(*program));
  DRACONIS_CHECK_MSG(network->IsSwitch(switch_node_), "roster on a pipeline off the fabric");
  const net::HostProfile& wire = network->profile(switch_node_);
  // StepCycle() times the switch side with an idle core and no stack latency.
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
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(trains_.size());
    trains_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    trains_[slot] = Train{};
  }
  Train& t = trains_[slot];
  t.executor = executor;
  t.node = node;
  // Every hop constant is looked up once per fleet, so a step touches only
  // the train and its fleet's entry.
  t.constants = ConstantsFor(Constants{
      network_->profile(node),
      network_->CostOf(node, switch_node_, executor->MakeRequest().WireSize()),
      network_->CostOf(switch_node_, node, DraconisProgram::NoOpFor(node).WireSize()),
      executor->max_retry()});
  t.poll = executor->poll_state();
  t.up = network_->LinkTo(node, switch_node_);
  t.down = network_->LinkTo(switch_node_, node);
  t.host_busy = network_->busy_until(node);
  Pull(t, constants_[t.constants], next_pull);
  t.hop = Hop::kPull;
  due_.Insert(slot, t.at, KeyOf(t));
  return true;
}

TimeNs PollRoster::HopAt(const Train& t) {
  switch (t.hop) {
    case Hop::kEgress:
      return t.egress_at;
    case Hop::kAtExecutor:
      return t.nic_at;
    case Hop::kHandOff:
      return t.handoff_at;
    case Hop::kPull:
      return t.poll.last_request_time;
    case Hop::kAtSwitch:
      break;
  }
  return t.at;
}

void PollRoster::Pull(Train& t, const Constants& c, TimeNs pull) {
  t.prev_pull = t.poll.last_request_time;
  t.poll.last_request_time = pull;
  t.busy_before_tx = t.host_busy;
  t.up_jitter_before = t.up.jitter;
  t.at = network_->LaunchTiming(t.node, c.up_cost, pull, t.host_busy, t.up).arrives;
}

void PollRoster::StepCycle(Train& t) {
  const Constants& c = constants_[t.constants];
  // The pass emits the no-op ...
  t.egress_at = t.at + pass_latency_;
  t.down_jitter_before = t.down.jitter;
  TimeNs switch_core = 0;  // zero-cost Wire profile: never busy
  t.nic_at =
      network_->LaunchTiming(switch_node_, c.down_cost, t.egress_at, switch_core, t.down).arrives;
  // ... the executor's NIC core takes it ...
  t.busy_before_rx = t.host_busy;
  t.handoff_at = net::Network::DeliveryTime(c.profile, t.nic_at, t.host_busy);
  // ... and the executor backs off and pulls again.
  t.rng_before = t.poll.rng;
  t.retry_before = t.poll.retry_interval;
  const TimeNs pull =
      t.handoff_at +
      cluster::Executor::NextPollDelay(t.poll.rng, t.poll.retry_interval, c.max_retry);
  Pull(t, c, pull);
  t.hop = Hop::kEgress;
}

void PollRoster::Advance(Train& t, TimeNs now, bool inclusive, const p4::IngressKey* pass) {
  const auto before = [now, inclusive](TimeNs at) { return at < now || (inclusive && at == now); };
  // A switch arrival at `now` goes before `*pass` only once every earlier
  // hop of its train has happened, i.e. its pull came before now.
  const auto passes = [&before, now, pass](const Train& x) {
    return before(x.at) ||
           (pass != nullptr && x.at == now &&
            (x.hop == Hop::kAtSwitch || x.poll.last_request_time < now) && KeyOf(x) < *pass);
  };
  if (passes(t)) {
    // The rest of the current cycle ...
    delivered_ += t.hop <= Hop::kHandOff ? 1 : 0;  // the no-op reaches the executor
    sent_ += t.hop <= Hop::kPull ? 1 : 0;           // the request leaves
    // ... then whole cycles: the request is delivered and passes, its no-op
    // is emitted and delivered, and the next request leaves.
    uint64_t cycles = 0;
    do {
      ++cycles;
      StepCycle(t);
    } while (passes(t));
    sent_ += 2 * cycles - 1;
    delivered_ += 2 * cycles - 1;
    passes_ += cycles;
  }
  while (t.hop != Hop::kAtSwitch && before(HopAt(t))) {
    if (t.hop == Hop::kHandOff) {
      ++delivered_;
    } else if (t.hop == Hop::kPull) {
      ++sent_;
    }
    t.hop = static_cast<Hop>(static_cast<uint8_t>(t.hop) + 1);
  }
}

void PollRoster::Flush() {
  if (sent_ == 0 && delivered_ == 0) {
    return;
  }
  network_->CreditElided(sent_, delivered_);
  if (passes_ != 0) {
    pipeline_->CreditElidedPasses(passes_);
    program_->CreditElidedNoOps(passes_);
  }
  sent_ = 0;
  delivered_ = 0;
  passes_ = 0;
}

void PollRoster::AfterPass(const p4::IngressKey& key) {
  if (due_.empty() || program_->QueuesIdle()) {
    return;
  }
  const TimeNs now = simulator_->Now();
  // Parked arrivals the canonical order puts before this pass saw the queue
  // empty: credit them (and their trains' later hops before now).
  for (;;) {
    const uint32_t slot = due_.Front();
    if (!(due_.at(slot) < now || (due_.at(slot) == now && due_.key(slot) < key))) {
      break;
    }
    due_.PopFront();
    Train& t = trains_[slot];
    Advance(t, now, /*inclusive=*/false, &key);
    DRACONIS_CHECK(t.at > now || key < KeyOf(t));  // it has left the credit boundary
    due_.Insert(slot, t.at, KeyOf(t));
  }
  Flush();
  // Same-instant arrivals after this pass join its group, in key order.
  while (!due_.empty() && due_.at(due_.Front()) == now) {
    const uint32_t slot = due_.PopFront();
    Train& t = trains_[slot];
    Advance(t, now, /*inclusive=*/false, nullptr);
    DRACONIS_CHECK(t.hop == Hop::kAtSwitch && t.at == now);
    ++delivered_;  // the request reaches the switch
    Flush();
    Restore(t, SnapshotOf(t));
    t.executor->Resume(t.poll, t.poll.last_request_time + t.executor->request_timeout());
    pipeline_->AdmitElided(RequestOf(t));
    Release(slot);
  }
  // The earliest later parked arrival is the next parked poll that could see
  // a task. It stays parked if a poll already handed back arrives first:
  // that real pass comes earlier and runs this check again.
  while (!woken_.empty() &&
         (woken_.back().first < now ||
          (woken_.back().first == now && !(key < woken_.back().second)))) {
    woken_.pop_back();
  }
  if (due_.empty()) {
    return;
  }
  const uint32_t slot = due_.Front();
  const std::pair<TimeNs, p4::IngressKey> next{due_.at(slot), due_.key(slot)};
  if (!woken_.empty() && !ArrivesLater(woken_.back(), next)) {
    return;
  }
  due_.PopFront();
  Train& t = trains_[slot];
  Advance(t, now, /*inclusive=*/false, nullptr);
  Flush();
  if (t.hop >= Hop::kPull) {
    // Its pass at next.first is now a real event.
    woken_.insert(std::lower_bound(woken_.begin(), woken_.end(), next, ArrivesLater), next);
  }
  Materialize(t);
  Release(slot);
}

void PollRoster::AdvanceAll(TimeNs now, bool inclusive) {
  if (due_.empty()) {
    return;
  }
  due_.Clear();
  for (uint32_t slot = 0; slot < trains_.size(); ++slot) {
    Train& t = trains_[slot];
    if (t.executor != nullptr) {
      Advance(t, now, inclusive, nullptr);
      due_.Insert(slot, t.at, KeyOf(t));
    }
  }
  Flush();
}

void PollRoster::SettleThrough(TimeNs until) { AdvanceAll(until, /*inclusive=*/true); }

void PollRoster::Discard() {
  AdvanceAll(simulator_->Now(), /*inclusive=*/false);
  trains_.clear();
  free_slots_.clear();
  due_.Clear();
  woken_.clear();
}

void PollRoster::WakeAll() {
  AdvanceAll(simulator_->Now(), /*inclusive=*/false);
  // In (next arrival, key) order, a property of the trains alone: the
  // re-created events of one instant are then scheduled in the same order
  // whatever container held the trains.
  while (!due_.empty()) {
    Materialize(trains_[due_.PopFront()]);
  }
  trains_.clear();
  free_slots_.clear();
  woken_.clear();  // a fault may drop or delay them
}

PollRoster::Snapshot PollRoster::SnapshotOf(const Train& t) const {
  Snapshot s{t.poll, t.up, t.down, t.host_busy};
  if (t.hop <= Hop::kPull) {
    s.poll.last_request_time = t.prev_pull;
    s.up.jitter = t.up_jitter_before;
    --s.up.sent;
    s.host_busy = t.busy_before_tx;
  }
  if (t.hop <= Hop::kHandOff) {
    s.poll.rng = t.rng_before;
    s.poll.retry_interval = t.retry_before;
  }
  if (t.hop <= Hop::kAtExecutor) {
    s.host_busy = t.busy_before_rx;
  }
  if (t.hop == Hop::kEgress) {
    s.down.jitter = t.down_jitter_before;
    --s.down.sent;
  }
  return s;
}

void PollRoster::Restore(const Train& t, const Snapshot& s) {
  network_->LinkTo(t.node, switch_node_) = s.up;
  network_->LinkTo(switch_node_, t.node) = s.down;
  network_->set_busy_until(t.node, s.host_busy);
}

void PollRoster::Materialize(const Train& t) {
  DRACONIS_CHECK(HopAt(t) >= simulator_->Now());
  const Snapshot s = SnapshotOf(t);
  Restore(t, s);
  if (t.hop == Hop::kPull) {
    t.executor->Resume(s.poll, t.poll.last_request_time);
    return;
  }
  // A request or its no-op is in flight: the pull's watchdog is armed.
  t.executor->Resume(s.poll, s.poll.last_request_time + t.executor->request_timeout());
  switch (t.hop) {
    case Hop::kAtSwitch:
      network_->Resume(net::Network::Hop::kArrive, t.at, t.node, RequestOf(t));
      return;
    case Hop::kEgress:
      network_->Resume(net::Network::Hop::kLaunch, t.egress_at, switch_node_,
                       DraconisProgram::NoOpFor(t.node));
      return;
    case Hop::kAtExecutor:
      network_->Resume(net::Network::Hop::kArrive, t.nic_at, switch_node_, NoOpOf(t));
      return;
    case Hop::kHandOff:
      network_->Resume(net::Network::Hop::kDeliver, t.handoff_at, switch_node_, NoOpOf(t));
      return;
    case Hop::kPull:
      return;
  }
}

net::Packet PollRoster::RequestOf(const Train& t) const {
  // As Network::Launch stamped it at the pull.
  net::Packet pkt = t.executor->MakeRequest();
  pkt.src = t.node;
  pkt.created_at = t.poll.last_request_time;
  pkt.sent_at = t.poll.last_request_time;
  pkt.link_seq = t.up.sent - 1;
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

uint32_t PollRoster::ConstantsFor(const Constants& c) {
  const auto it = std::find(constants_.begin(), constants_.end(), c);
  if (it != constants_.end()) {
    return static_cast<uint32_t>(it - constants_.begin());
  }
  constants_.push_back(c);
  return static_cast<uint32_t>(constants_.size() - 1);
}

void PollRoster::Release(uint32_t slot) {
  trains_[slot].executor = nullptr;
  free_slots_.push_back(slot);
}

}  // namespace draconis::core
