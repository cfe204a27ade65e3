// Event-free idle polling: the parking roster of one Draconis switch.
//
// An idle executor polls its ToR with task_requests and gets no-ops back
// (§3.1). When the switch program is pure for polls (shadow-copy dequeue,
// no cross-level recirculating probe) and every queue is empty and
// repair-free, such a round trip changes nothing outside the executor's own
// poll train: its backoff RNG and retry interval, its host core, the jitter
// streams of its two links (net/network.h: per-link streams), and counters.
// So the executor *parks* here. Its train then advances as arithmetic,
// through the very calls the eager path makes (Network::LaunchTiming and
// DeliveryTime, Executor::NextPollDelay), and schedules no events.
//
// A train is a cycle of five hops: the pull (the request leaves the
// executor), the pass at the switch, the no-op's egress, its NIC arrival at
// the executor, and its hand-off (the executor draws its next backoff).
//
// Invariant. After any pass that leaves the queues non-idle, the roster
//   - credits every parked switch arrival that the canonical ingress order
//     (p4/pipeline.h) puts before that pass: each saw an empty queue;
//   - merges the parked arrivals of the same instant that come after it into
//     the switch's same-instant group;
//   - materializes the train whose next switch arrival is the earliest later
//     one, unless a train it handed back earlier arrives first: it restores
//     the executor's timer, host core, RNG, retry and last-request state
//     mid-cycle and re-creates the pending hop as a real event.
// Until the next pass the queue state is fixed, and that next pass is real,
// so no parked poll can see a task. Whatever
// could change a train's arithmetic wakes every train first: the fault
// injector does before each action, and so does a failover's rehome.
//
// Harvest. RunUntil credits every hop at or before its bound and Clear every
// hop strictly before Now() (sim::OffQueueWork), so packets_sent/delivered,
// the in-flight count, the pipeline counters and noops_sent read after a run
// include the elided hops. Only executed_events() differs from an eager run.
//
// Cost. A parked train is stepped once per cycle: as soon as its switch
// arrival is credited, the rest of the cycle up to the next arrival is
// computed and kept, with what a mid-cycle hand-back needs to undo it. Hops
// are tallied in the roster and reach the fabric, pipeline and program
// counters in one flush per call, before anything can observe them. Trains
// wait in a DueQueue (core/due_queue.h) on their next switch arrival.

#ifndef DRACONIS_CORE_POLL_ROSTER_H_
#define DRACONIS_CORE_POLL_ROSTER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/executor.h"
#include "core/draconis_program.h"
#include "core/due_queue.h"
#include "net/network.h"
#include "p4/pipeline.h"
#include "sim/simulator.h"

namespace draconis::core {

class PollRoster : public cluster::PollParking,
                   public p4::PassObserver,
                   public sim::OffQueueWork {
 public:
  // Whether a roster can park polls to `program`'s switch at all.
  static bool Supports(const DraconisProgram& program) { return program.PollsArePure(); }

  // Attaches to the pipeline (as its pass observer) and the simulator. All
  // four must outlive the roster.
  PollRoster(sim::Simulator* simulator, net::Network* network, p4::SwitchPipeline* pipeline,
             DraconisProgram* program);
  ~PollRoster() override;
  PollRoster(const PollRoster&) = delete;
  PollRoster& operator=(const PollRoster&) = delete;

  // cluster::PollParking:
  bool TryPark(cluster::Executor* executor, TimeNs next_pull) override;

  // p4::PassObserver:
  void AfterPass(const p4::IngressKey& key) override;

  // sim::OffQueueWork:
  void SettleThrough(TimeNs until) override;
  void Discard() override;

  // Hands every parked train back to its executor at its pending hop.
  void WakeAll();

 private:
  // A cycle's hops after its switch arrival, then the next cycle's two:
  // the no-op's egress, its NIC arrival at the executor, its hand-off (the
  // executor draws its next backoff), the pull (the request leaves the
  // executor), and the pass at the switch. Declared in that order, so
  // `hop <= kPull` reads "the pull has not happened yet".
  enum class Hop : uint8_t { kEgress, kAtExecutor, kHandOff, kPull, kAtSwitch };

  // What every train of one fleet shares, looked up once per fleet.
  struct Constants {
    net::HostProfile profile;         // the executor's NIC core costs
    net::Network::HopCost up_cost;    // the request's hop
    net::Network::HopCost down_cost;  // the no-op's hop
    TimeNs max_retry = 0;

    bool operator==(const Constants&) const = default;
  };

  // A parked train, stepped ahead to its next switch arrival: `poll`, the
  // links and `host_busy` are its state just after the pull that arrives at
  // `at`. The hops from `hop` up to that arrival have not happened yet;
  // the *_before fields undo them for a hand-back mid-cycle.
  struct Train {
    cluster::Executor* executor = nullptr;  // nullptr: a free slot
    net::NodeId node = net::kInvalidNode;
    uint32_t constants = 0;  // into constants_
    Hop hop = Hop::kPull;    // the first hop not yet happened
    TimeNs at = 0;           // the next switch arrival
    cluster::Executor::PollState poll;  // last_request_time: that arrival's pull
    net::Network::Link up;    // executor -> switch
    net::Network::Link down;  // switch -> executor
    TimeNs host_busy = 0;     // the executor's NIC core
    // The current cycle's tail, and the state before each of its hops.
    TimeNs egress_at = 0;
    TimeNs nic_at = 0;
    TimeNs handoff_at = 0;
    TimeNs prev_pull = 0;  // the pull before last_request_time
    Rng down_jitter_before{0};
    TimeNs busy_before_rx = 0;
    Rng rng_before{0};
    TimeNs retry_before = 0;
    TimeNs busy_before_tx = 0;
    Rng up_jitter_before{0};
  };

  // A train's state as of its pending hop (before it).
  struct Snapshot {
    cluster::Executor::PollState poll;
    net::Network::Link up;
    net::Network::Link down;
    TimeNs host_busy = 0;
  };

  static p4::IngressKey KeyOf(const Train& t) {
    return p4::IngressKey{t.poll.last_request_time, t.node, t.up.sent - 1};
  }
  static TimeNs HopAt(const Train& t);

  // Pulls at `pull` and steps on to the request's switch arrival.
  void Pull(Train& t, const Constants& c, TimeNs pull);
  // From a credited switch arrival, steps through the rest of the cycle to
  // the next one.
  void StepCycle(Train& t);
  // Tallies every hop of `t` before `now` (at `now` too when `inclusive`),
  // and a switch arrival at `now` whose key is below `*pass`.
  void Advance(Train& t, TimeNs now, bool inclusive, const p4::IngressKey* pass);
  // Moves the tallies into the fabric, pipeline and program counters.
  void Flush();

  Snapshot SnapshotOf(const Train& t) const;
  // Writes `s`'s links and host core back to the fabric.
  void Restore(const Train& t, const Snapshot& s);
  // Hands `t` back at its pending hop (at or after Now()).
  void Materialize(const Train& t);
  net::Packet RequestOf(const Train& t) const;
  net::Packet NoOpOf(const Train& t) const;

  uint32_t ConstantsFor(const Constants& c);
  // Frees `slot` (its train is no longer parked).
  void Release(uint32_t slot);
  // Every parked slot, advanced before `now` (through it when `inclusive`)
  // and re-queued.
  void AdvanceAll(TimeNs now, bool inclusive);

  sim::Simulator* simulator_;
  net::Network* network_;
  p4::SwitchPipeline* pipeline_;
  DraconisProgram* program_;
  net::NodeId switch_node_;
  TimeNs pass_latency_;
  std::vector<Constants> constants_;
  // Parked trains live in slots of trains_ (free ones listed in
  // free_slots_); due_ holds each parked slot on (at, KeyOf).
  std::vector<Train> trains_;
  std::vector<uint32_t> free_slots_;
  DueQueue due_;
  // Switch arrivals of trains handed back with their request not yet past
  // the switch, latest first: each is a real pass to come.
  std::vector<std::pair<TimeNs, p4::IngressKey>> woken_;
  // Elided hops not yet flushed: packets launched, packets handed to their
  // endpoint, and passes (each of which emitted one no-op).
  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;
  uint64_t passes_ = 0;
};

}  // namespace draconis::core

#endif  // DRACONIS_CORE_POLL_ROSTER_H_
