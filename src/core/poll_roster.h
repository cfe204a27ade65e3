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

#ifndef DRACONIS_CORE_POLL_ROSTER_H_
#define DRACONIS_CORE_POLL_ROSTER_H_

#include <cstdint>
#include <vector>

#include "cluster/executor.h"
#include "core/draconis_program.h"
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
  enum class Hop : uint8_t { kPull, kAtSwitch, kEgress, kAtExecutor, kHandOff };

  struct Train {
    cluster::Executor* executor = nullptr;
    net::NodeId node = net::kInvalidNode;
    cluster::Executor::PollState poll;
    TimeNs max_retry = 0;
    TimeNs host_busy = 0;             // the executor's NIC core ...
    net::HostProfile profile;         // ... and its costs
    net::Network::Link up;            // executor -> switch
    net::Network::Link down;          // switch -> executor
    net::Network::HopCost up_cost;    // the request's hop
    net::Network::HopCost down_cost;  // the no-op's hop
    Hop hop = Hop::kPull;     // the pending hop ...
    TimeNs at = 0;            // ... and when it happens
    TimeNs pulled_at = 0;     // the current cycle's pull
    TimeNs egress_at = 0;     // the current cycle's no-op egress
    p4::IngressKey key;       // the current cycle's request at the switch
  };

  // A parked train's next switch arrival: the roster's heap order.
  struct Due {
    TimeNs at = 0;
    p4::IngressKey key;
    uint32_t slot = 0;  // into trains_
  };

  // Runs the pending hop's arithmetic and moves to the next one; `credit`
  // counts it in the fabric, pipeline and program counters.
  void Step(Train& t, bool credit);
  // Steps `t` through every hop strictly before `now` (inclusive: at or
  // before), crediting each.
  void StepBefore(Train& t, TimeNs now, bool inclusive);
  // `t`'s next switch arrival: steps a copy up to it.
  Due Peek(const Train& t, uint32_t slot);
  // Writes `t`'s state back to its executor and the fabric.
  void Restore(const Train& t);
  // Hands `t` back at its pending hop (at or after Now()).
  void Materialize(const Train& t);
  net::Packet RequestOf(const Train& t) const;
  net::Packet NoOpOf(const Train& t) const;

  // Parks `t` (in a free slot) and queues its next switch arrival.
  void Push(Train t);
  // Unparks the train with the earliest next switch arrival.
  Train Pop();
  static bool ArrivesLater(const Due& a, const Due& b);

  sim::Simulator* simulator_;
  net::Network* network_;
  p4::SwitchPipeline* pipeline_;
  DraconisProgram* program_;
  net::NodeId switch_node_;
  // Parked trains live in slots of trains_ (free ones listed in
  // free_slots_); due_ is a min-heap on (at, key) with one entry per parked
  // train, small enough to keep heap moves cheap on rosters of 10^4 trains.
  std::vector<Train> trains_;
  std::vector<uint32_t> free_slots_;
  std::vector<Due> due_;
  // Switch arrivals of trains handed back with their request not yet past
  // the switch (min-heap; slot unused): each is a real pass to come.
  std::vector<Due> woken_;
};

}  // namespace draconis::core

#endif  // DRACONIS_CORE_POLL_ROSTER_H_
