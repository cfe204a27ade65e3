// Event-free idle polling: the parking roster of one Draconis switch.
//
// An idle executor polls its ToR with task_requests and gets no-ops back
// (§3.1). When the switch program is pure for polls (shadow-copy dequeue,
// no cross-level recirculating probe) and every queue is empty and
// repair-free, such a round trip changes nothing outside the executor's own
// poll train: its backoff RNG and retry interval, its host core, the jitter
// streams of its two links (net/network.h: per-link streams), and counters.
// So the executor *parks* here. Its train then advances as arithmetic,
// through the very calls the eager path makes (Network::WireArrival and
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
// Parking at send. An executor offers its train before it sends a pure
// task_request too, not only after a no-op: a request sent into idle queues
// is certain to be answered with a no-op, so its round trip is elided like
// any other.
//
// Cost. A parked train is stepped a run at a time: a credit loads it into
// locals once, steps cycle after cycle until its next switch arrival leaves
// the credit boundary, and stores its Train and Tail once, from the last
// cycle (with what a mid-cycle hand-back needs to undo that cycle). The
// step adds per-fleet constants folded at the train's first park (see
// Fleet) and the fabric's fault penalty, read once per sweep: a fault action
// wakes every train first, so the penalty cannot change while one is
// parked. Hops are tallied in the roster and reach the fabric, pipeline and
// program counters in one flush per call, before anything can observe them.
// Trains wait in a DueQueue (core/due_queue.h) on their next switch
// arrival; a pass takes every overdue one at once, without sorting them.
//
// Layout. Crediting a cycle reads one cache line: a train's Train record
// holds its stepping state, its due-queue `at` and its IngressKey (KeyOf).
// The cycle's hop times and undo state go to its Tail line, which a credit
// only writes; a hand-back or a settle reads it. The executor's NIC core is
// not stored: a train parks only if the core is free at its pull, and then
// it is busy exactly tx_cost past each pull. Each executor keeps one slot
// for its whole life in the roster (Executor::parking_slot), with its fleet
// constants and its two links' addresses looked up at its first park.

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

  // What every train of one fleet shares, looked up once per executor. Both
  // hops stay in the rack (no two-tier surcharge), and the switch's core is
  // never busy (zero-cost Wire profile), so each hop is its sender's tx cost
  // and a fixed wire time, plus the fault penalty and a jitter draw.
  struct Fleet {
    net::HostProfile profile;  // the executor's NIC core costs
    TimeNs up_tx = 0;          // the request's: the executor's tx cost ...
    TimeNs up_wire = 0;        // ... and its wire time
    TimeNs noop_departs = 0;   // from the pass to the no-op leaving the switch
    TimeNs down_wire = 0;      // the no-op's wire time
    TimeNs max_retry = 0;

    bool operator==(const Fleet&) const = default;
  };
  static constexpr uint8_t kNoFleet = UINT8_MAX;  // a slot that never parks

  // A parked train's stepping state, stepped ahead to its next switch
  // arrival `at`: the executor's backoff and its two link streams just
  // after the pull that arrives then. The hops from `hop` up to that
  // arrival have not happened yet (or are not yet tallied: see Advance).
  struct alignas(64) Train {
    TimeNs at = 0;
    TimeNs pull = 0;  // the executor's last_request_time
    Rng rng{0};       // its backoff stream and interval
    TimeNs retry = 0;
    Rng up_jitter{0};  // executor -> switch
    uint64_t up_sent = 0;
    Rng down_jitter{0};  // switch -> executor
    net::NodeId node = net::kInvalidNode;
    Hop hop = Hop::kPull;  // the first hop not yet happened
    uint8_t fleet = 0;     // into fleets_
  };
  static_assert(sizeof(Train) == 64);

  // The current cycle's tail, and the state before each of its hops.
  struct alignas(64) Tail {
    TimeNs egress_at = 0;
    TimeNs nic_at = 0;
    // The hand-off, after which the executor's core is free again; at a
    // park, set so that this still gives the core's state before the pull.
    TimeNs handoff_at = 0;
    TimeNs prev_pull = 0;  // the pull before Train::pull
    Rng rng_before{0};
    TimeNs retry_before = 0;
    Rng up_jitter_before{0};
    Rng down_jitter_before{0};
  };
  static_assert(sizeof(Tail) == 64);

  // An executor's slot, kept from its first park on.
  struct Berth {
    cluster::Executor* executor = nullptr;
    net::Network::Link* up = nullptr;  // valid while links_epoch is current
    net::Network::Link* down = nullptr;
    uint64_t links_epoch = 0;
    uint64_t down_offset = 0;  // down link's sent - Train::up_sent, while parked
    uint8_t fleet = kNoFleet;
    bool parked = false;
  };

  // A train's state as of its pending hop (before it).
  struct Snapshot {
    cluster::Executor::PollState poll;
    net::Network::Link up;
    net::Network::Link down;
    TimeNs host_busy = 0;
  };

  // What the due queue reads of a queued slot.
  struct DueSlots {
    const PollRoster* roster;
    TimeNs At(uint32_t slot) const { return roster->trains_[slot].at; }
    p4::IngressKey Key(uint32_t slot) const { return KeyOf(roster->trains_[slot]); }
    void Prefetch(uint32_t slot) const {
      __builtin_prefetch(&roster->trains_[slot]);
      __builtin_prefetch(&roster->tails_[slot], /*rw=*/1);
    }
  };

  // A switch arrival's ingress key: its request's send time, sender and
  // sequence number on the up link (`up_sent` counts that request).
  static p4::IngressKey KeyOf(TimeNs pull, net::NodeId node, uint64_t up_sent) {
    return p4::IngressKey{pull, node, up_sent - 1};
  }
  static p4::IngressKey KeyOf(const Train& t) { return KeyOf(t.pull, t.node, t.up_sent); }
  static TimeNs HopAt(const Train& t, const Tail& tail);

  // The executor's slot, set up at its first park.
  uint32_t SlotOf(cluster::Executor* executor);
  uint8_t FleetFor(const Fleet& fleet);
  // Looks the berth's links up again if they may have moved.
  void RefreshLinks(Berth& b, net::NodeId node);
  // Credits the switch arrivals of `t` before `now` (at `now` too when
  // `inclusive`), and one at `now` whose key is below `*pass`, each with
  // the rest of its cycle. `penalty` is the fabric's latency penalty.
  void Credit(Train& t, Tail& tail, TimeNs now, bool inclusive, const p4::IngressKey* pass,
              TimeNs penalty);
  // Credit() with no pass, then tallies the hops after the last credited
  // arrival that come before `now` (at `now` too when `inclusive`).
  void Advance(uint32_t slot, TimeNs now, bool inclusive, TimeNs penalty);
  // Moves the tallies into the fabric, pipeline and program counters.
  void Flush();

  Snapshot SnapshotOf(uint32_t slot) const;
  // Writes `s`'s links and host core back to the fabric.
  void Restore(uint32_t slot, const Snapshot& s);
  // Hands slot's train back at its pending hop (at or after Now()).
  void Materialize(uint32_t slot);
  net::Packet RequestOf(uint32_t slot) const;
  net::Packet NoOpOf(uint32_t slot) const;

  // Every parked slot, advanced before `now` (through it when `inclusive`)
  // and re-queued.
  void AdvanceAll(TimeNs now, bool inclusive);
  // Unparks every slot.
  void ReleaseAll();

  sim::Simulator* simulator_;
  net::Network* network_;
  p4::SwitchPipeline* pipeline_;
  DraconisProgram* program_;
  net::NodeId switch_node_;
  TimeNs pass_latency_;
  TimeNs max_jitter_;  // the fabric's, fixed for its life
  std::vector<Fleet> fleets_;
  // Three parallel arrays, by slot.
  std::vector<Train> trains_;
  std::vector<Tail> tails_;
  std::vector<Berth> berths_;
  // Parked slots on (at, KeyOf).
  DueQueue<DueSlots> due_{DueSlots{this}};
  std::vector<uint32_t> overdue_;  // AfterPass's take from due_
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
