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
      pass_latency_(pipeline->pass_latency()),
      max_jitter_(network->max_jitter()) {
  DRACONIS_CHECK(Supports(*program));
  DRACONIS_CHECK_MSG(network->IsSwitch(switch_node_), "roster on a pipeline off the fabric");
  const net::HostProfile& wire = network->profile(switch_node_);
  // Credit() times the switch side with an idle core and no stack latency.
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
      network_->HasDropRule(switch_node_, node)) {
    return false;
  }
  const uint32_t slot = SlotOf(executor);
  Berth& b = berths_[slot];
  // Parked, the core is busy exactly tx_cost past each pull (see Layout);
  // a core still busy at the pull keeps the train eager.
  const TimeNs host_busy = network_->busy_until(node);
  if (b.fleet == kNoFleet || host_busy > next_pull) {
    return false;
  }
  DRACONIS_CHECK(!b.parked);
  RefreshLinks(b, node);
  const Fleet& c = fleets_[b.fleet];
  const cluster::Executor::PollState poll = executor->poll_state();
  Train& t = trains_[slot];
  Tail& tail = tails_[slot];
  t.node = node;
  t.fleet = b.fleet;
  t.rng = poll.rng;
  t.retry = poll.retry_interval;
  t.down_jitter = b.down->jitter;
  tail.prev_pull = poll.last_request_time;
  tail.up_jitter_before = b.up->jitter;
  tail.handoff_at = host_busy + c.profile.stack_latency;
  // The pull, and its request's switch arrival.
  net::Network::Link up = *b.up;
  t.at = net::Network::WireArrival(next_pull + c.up_tx, c.up_wire + network_->latency_penalty(),
                                   max_jitter_, up);
  t.pull = next_pull;
  t.up_jitter = up.jitter;
  t.up_sent = up.sent;
  t.hop = Hop::kPull;
  b.down_offset = b.down->sent - up.sent;
  b.parked = true;
  // A train handed back at its pull and re-parked as it sends: its pass is
  // no longer a real one to come.
  const std::pair<TimeNs, p4::IngressKey> arrival{t.at, KeyOf(t)};
  const auto it = std::lower_bound(woken_.begin(), woken_.end(), arrival, ArrivesLater);
  if (it != woken_.end() && !ArrivesLater(*it, arrival) && !ArrivesLater(arrival, *it)) {
    woken_.erase(it);
  }
  due_.Insert(slot);
  return true;
}

uint32_t PollRoster::SlotOf(cluster::Executor* executor) {
  uint32_t slot = executor->parking_slot();
  if (slot != cluster::Executor::kNoParkingSlot) {
    DRACONIS_CHECK(slot < berths_.size() && berths_[slot].executor == executor);
    return slot;
  }
  slot = static_cast<uint32_t>(berths_.size());
  executor->set_parking_slot(slot);
  trains_.emplace_back();
  tails_.emplace_back();
  Berth& b = berths_.emplace_back();
  b.executor = executor;
  const net::NodeId node = executor->node_id();
  if (network_->NodeRack(node) == network_->NodeRack(switch_node_)) {
    // Every hop constant is looked up once per executor, so a step touches
    // only the train and its fleet's entry.
    const net::Packet request = executor->MakeRequest();
    DRACONIS_CHECK(request.dst == switch_node_);
    const size_t noop_size = DraconisProgram::NoOpFor(node).WireSize();
    const net::Network::HopCost up = network_->CostOf(node, switch_node_, request.WireSize());
    const net::Network::HopCost down = network_->CostOf(switch_node_, node, noop_size);
    // Fleet's folded form has no two-tier surcharge.
    DRACONIS_CHECK(!up.cross_rack && !down.cross_rack);
    Fleet fleet;
    fleet.profile = network_->profile(node);
    fleet.up_tx = up.tx_cost;
    fleet.up_wire = up.wire;
    fleet.noop_departs = pass_latency_ + down.tx_cost;
    fleet.down_wire = down.wire;
    fleet.max_retry = executor->max_retry();
    b.fleet = FleetFor(fleet);
  }
  return slot;
}

uint8_t PollRoster::FleetFor(const Fleet& fleet) {
  const auto it = std::find(fleets_.begin(), fleets_.end(), fleet);
  if (it != fleets_.end()) {
    return static_cast<uint8_t>(it - fleets_.begin());
  }
  if (fleets_.size() == kNoFleet) {
    return kNoFleet;  // executors past 255 fleets poll as events
  }
  fleets_.push_back(fleet);
  return static_cast<uint8_t>(fleets_.size() - 1);
}

void PollRoster::RefreshLinks(Berth& b, net::NodeId node) {
  if (b.up == nullptr || b.links_epoch != network_->links_epoch()) {
    b.up = &network_->LinkTo(node, switch_node_);
    b.down = &network_->LinkTo(switch_node_, node);
    b.links_epoch = network_->links_epoch();
  }
}

TimeNs PollRoster::HopAt(const Train& t, const Tail& tail) {
  switch (t.hop) {
    case Hop::kEgress:
      return tail.egress_at;
    case Hop::kAtExecutor:
      return tail.nic_at;
    case Hop::kHandOff:
      return tail.handoff_at;
    case Hop::kPull:
      return t.pull;
    case Hop::kAtSwitch:
      break;
  }
  return t.at;
}

void PollRoster::Credit(Train& t, Tail& tail, TimeNs now, bool inclusive,
                        const p4::IngressKey* pass, TimeNs penalty) {
  // A switch arrival at `now` goes before `*pass` only once every earlier
  // hop of its train has happened, i.e. its pull came before now.
  const net::NodeId node = t.node;
  const auto passes = [now, inclusive, pass, node](TimeNs at, bool pulled, TimeNs pull,
                                                   uint64_t up_sent) {
    return at < now ||
           (at == now && (inclusive || (pass != nullptr && pulled &&
                                        KeyOf(pull, node, up_sent) < *pass)));
  };
  if (!passes(t.at, t.hop == Hop::kAtSwitch || t.pull < now, t.pull, t.up_sent)) {
    return;
  }
  // The rest of the current cycle ...
  delivered_ += t.hop <= Hop::kHandOff ? 1 : 0;  // the no-op reaches the executor
  sent_ += t.hop <= Hop::kPull ? 1 : 0;           // the request leaves
  // ... then whole cycles, in locals: the request is delivered and passes,
  // its no-op is emitted and delivered, the executor's core (busy tx_cost
  // past the pull's send, see Layout) takes it, and the executor backs off
  // and pulls again after the hand-off, so its core is free at the pull.
  const Fleet& c = fleets_[t.fleet];
  const net::HostProfile profile = c.profile;
  const TimeNs up_tx = c.up_tx;
  const TimeNs up_fixed = c.up_wire + penalty;
  const TimeNs noop_departs = c.noop_departs;
  const TimeNs down_fixed = c.down_wire + penalty;
  const TimeNs max_retry = c.max_retry;
  const TimeNs max_jitter = max_jitter_;
  TimeNs at = t.at;
  TimeNs pull = t.pull;
  Rng rng = t.rng;
  TimeNs retry = t.retry;
  net::Network::Link up{t.up_jitter, t.up_sent};
  net::Network::Link down{t.down_jitter};
  // The last cycle's tail.
  TimeNs passed_at = 0;
  TimeNs nic_at = 0;
  TimeNs handoff_at = 0;
  TimeNs prev_pull = 0;
  Rng rng_before{0};
  TimeNs retry_before = 0;
  Rng up_jitter_before{0};
  Rng down_jitter_before{0};
  uint64_t cycles = 0;
  do {
    ++cycles;
    passed_at = at;
    down_jitter_before = down.jitter;
    nic_at = net::Network::WireArrival(at + noop_departs, down_fixed, max_jitter, down);
    TimeNs host_busy = pull + up_tx;
    handoff_at = net::Network::DeliveryTime(profile, nic_at, host_busy);
    rng_before = rng;
    retry_before = retry;
    prev_pull = pull;
    up_jitter_before = up.jitter;
    pull = handoff_at + cluster::Executor::NextPollDelay(rng, retry, max_retry);
    at = net::Network::WireArrival(pull + up_tx, up_fixed, max_jitter, up);
  } while (passes(at, pull < now, pull, up.sent));
  t.at = at;
  t.pull = pull;
  t.rng = rng;
  t.retry = retry;
  t.up_jitter = up.jitter;
  t.up_sent = up.sent;
  t.down_jitter = down.jitter;
  t.hop = Hop::kEgress;
  tail.egress_at = passed_at + pass_latency_;
  tail.nic_at = nic_at;
  tail.handoff_at = handoff_at;
  tail.prev_pull = prev_pull;
  tail.rng_before = rng_before;
  tail.retry_before = retry_before;
  tail.up_jitter_before = up_jitter_before;
  tail.down_jitter_before = down_jitter_before;
  sent_ += 2 * cycles - 1;
  delivered_ += 2 * cycles - 1;
  passes_ += cycles;
}

void PollRoster::Advance(uint32_t slot, TimeNs now, bool inclusive, TimeNs penalty) {
  Train& t = trains_[slot];
  Tail& tail = tails_[slot];
  Credit(t, tail, now, inclusive, nullptr, penalty);
  while (t.hop != Hop::kAtSwitch) {
    const TimeNs at = HopAt(t, tail);
    if (!(at < now || (inclusive && at == now))) {
      break;
    }
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
  const TimeNs penalty = network_->latency_penalty();
  // Parked arrivals the canonical order puts before this pass saw the queue
  // empty: credit them, each independently of the others, so in any order.
  // Their later hops before now are tallied when the train is next
  // credited, handed back or settled.
  overdue_.clear();
  due_.TakeBefore(
      now, [this, &key](uint32_t slot) { return KeyOf(trains_[slot]) < key; }, overdue_);
  for (const uint32_t slot : overdue_) {
    __builtin_prefetch(&trains_[slot], /*rw=*/1);
    __builtin_prefetch(&tails_[slot], /*rw=*/1);
  }
  for (const uint32_t slot : overdue_) {
    Train& t = trains_[slot];
    Credit(t, tails_[slot], now, /*inclusive=*/false, &key, penalty);
    DRACONIS_CHECK(t.at > now || key < KeyOf(t));  // it has left the credit boundary
    due_.Insert(slot);
  }
  Flush();
  // Same-instant arrivals after this pass join its group, in key order.
  while (!due_.empty() && trains_[due_.Front()].at == now) {
    const uint32_t slot = due_.PopFront();
    Advance(slot, now, /*inclusive=*/false, penalty);
    const Train& t = trains_[slot];
    DRACONIS_CHECK(t.hop == Hop::kAtSwitch && t.at == now);
    ++delivered_;  // the request reaches the switch
    Flush();
    Restore(slot, SnapshotOf(slot));
    cluster::Executor* executor = berths_[slot].executor;
    const cluster::Executor::PollState poll{t.rng, t.retry, t.pull};
    executor->Resume(poll, t.pull + executor->request_timeout());
    pipeline_->AdmitElided(RequestOf(slot));
    berths_[slot].parked = false;
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
  const std::pair<TimeNs, p4::IngressKey> next{trains_[slot].at, KeyOf(trains_[slot])};
  if (!woken_.empty() && !ArrivesLater(woken_.back(), next)) {
    return;
  }
  due_.PopFront();
  Advance(slot, now, /*inclusive=*/false, penalty);
  Flush();
  if (trains_[slot].hop >= Hop::kPull) {
    // Its pass at next.first is now a real event.
    woken_.insert(std::lower_bound(woken_.begin(), woken_.end(), next, ArrivesLater), next);
  }
  Materialize(slot);
  berths_[slot].parked = false;
}

void PollRoster::AdvanceAll(TimeNs now, bool inclusive) {
  if (due_.empty()) {
    return;
  }
  due_.Clear();
  const TimeNs penalty = network_->latency_penalty();
  for (uint32_t slot = 0; slot < berths_.size(); ++slot) {
    if (berths_[slot].parked) {
      Advance(slot, now, inclusive, penalty);
      due_.Insert(slot);
    }
  }
  Flush();
}

void PollRoster::ReleaseAll() {
  for (Berth& b : berths_) {
    b.parked = false;
  }
  due_.Clear();
  woken_.clear();
}

void PollRoster::SettleThrough(TimeNs until) { AdvanceAll(until, /*inclusive=*/true); }

void PollRoster::Discard() {
  AdvanceAll(simulator_->Now(), /*inclusive=*/false);
  ReleaseAll();
}

void PollRoster::WakeAll() {
  AdvanceAll(simulator_->Now(), /*inclusive=*/false);
  // In (next arrival, key) order, a property of the trains alone: the
  // re-created events of one instant are then scheduled in the same order
  // whatever container held the trains.
  while (!due_.empty()) {
    Materialize(due_.PopFront());
  }
  ReleaseAll();  // woken_ too: a fault may drop or delay them
}

PollRoster::Snapshot PollRoster::SnapshotOf(uint32_t slot) const {
  const Train& t = trains_[slot];
  const Tail& tail = tails_[slot];
  const Fleet& c = fleets_[t.fleet];
  Snapshot s;
  s.poll = {t.rng, t.retry, t.pull};
  s.up.jitter = t.up_jitter;
  s.up.sent = t.up_sent;
  s.down.jitter = t.down_jitter;
  s.down.sent = t.up_sent + berths_[slot].down_offset;
  s.host_busy = t.pull + c.up_tx;
  if (t.hop <= Hop::kPull) {
    s.poll.last_request_time = tail.prev_pull;
    s.up.jitter = tail.up_jitter_before;
    --s.up.sent;
    s.host_busy = tail.handoff_at - c.profile.stack_latency;
  }
  if (t.hop <= Hop::kHandOff) {
    s.poll.rng = tail.rng_before;
    s.poll.retry_interval = tail.retry_before;
  }
  if (t.hop <= Hop::kAtExecutor) {
    s.host_busy = tail.prev_pull + c.up_tx;
  }
  if (t.hop == Hop::kEgress) {
    s.down.jitter = tail.down_jitter_before;
    --s.down.sent;
  }
  return s;
}

void PollRoster::Restore(uint32_t slot, const Snapshot& s) {
  Berth& b = berths_[slot];
  const net::NodeId node = trains_[slot].node;
  RefreshLinks(b, node);
  b.up->jitter = s.up.jitter;
  b.up->sent = s.up.sent;
  b.down->jitter = s.down.jitter;
  b.down->sent = s.down.sent;
  network_->set_busy_until(node, s.host_busy);
}

void PollRoster::Materialize(uint32_t slot) {
  const Train& t = trains_[slot];
  const Tail& tail = tails_[slot];
  DRACONIS_CHECK(HopAt(t, tail) >= simulator_->Now());
  const Snapshot s = SnapshotOf(slot);
  Restore(slot, s);
  cluster::Executor* executor = berths_[slot].executor;
  if (t.hop == Hop::kPull) {
    executor->Resume(s.poll, t.pull);
    return;
  }
  // A request or its no-op is in flight: the pull's watchdog is armed.
  executor->Resume(s.poll, s.poll.last_request_time + executor->request_timeout());
  switch (t.hop) {
    case Hop::kAtSwitch:
      network_->Resume(net::Network::Hop::kArrive, t.at, t.node, RequestOf(slot));
      return;
    case Hop::kEgress:
      network_->Resume(net::Network::Hop::kLaunch, tail.egress_at, switch_node_,
                       DraconisProgram::NoOpFor(t.node));
      return;
    case Hop::kAtExecutor:
      network_->Resume(net::Network::Hop::kArrive, tail.nic_at, switch_node_, NoOpOf(slot));
      return;
    case Hop::kHandOff:
      network_->Resume(net::Network::Hop::kDeliver, tail.handoff_at, switch_node_, NoOpOf(slot));
      return;
    case Hop::kPull:
      return;
  }
}

net::Packet PollRoster::RequestOf(uint32_t slot) const {
  // As Network::Launch stamped it at the pull.
  const Train& t = trains_[slot];
  net::Packet pkt = berths_[slot].executor->MakeRequest();
  pkt.src = t.node;
  pkt.created_at = t.pull;
  pkt.sent_at = t.pull;
  pkt.link_seq = t.up_sent - 1;
  return pkt;
}

net::Packet PollRoster::NoOpOf(uint32_t slot) const {
  // As Network::Launch stamped it at the egress.
  const Train& t = trains_[slot];
  net::Packet pkt = DraconisProgram::NoOpFor(t.node);
  pkt.src = switch_node_;
  pkt.created_at = tails_[slot].egress_at;
  pkt.sent_at = tails_[slot].egress_at;
  pkt.link_seq = t.up_sent + berths_[slot].down_offset - 1;
  return pkt;
}

}  // namespace draconis::core
