// Pull-based executor (paper §3.1).
//
// One Executor models one worker-core process. It requests a task from the
// scheduler when free, runs the task (data-access penalty + service time),
// then sends the completion — with the next task request piggybacked — back
// through the scheduler. On a no-op reply it retries periodically, with
// jittered exponential backoff capped at max_retry.
//
// An idle executor's poll train can be handed to a PollParking roster (the
// Draconis deployment's, core/poll_roster.h), which then advances it as
// arithmetic instead of events and hands it back, mid-cycle, exactly when a
// poll could see a task.

#ifndef DRACONIS_CLUSTER_EXECUTOR_H_
#define DRACONIS_CLUSTER_EXECUTOR_H_

#include <algorithm>
#include <cstdint>

#include "cluster/task_runner.h"
#include "cluster/testbed.h"
#include "common/rng.h"
#include "core/topology.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace draconis::cluster {

struct ExecutorConfig {
  uint32_t worker_node = 0;  // which worker machine this core belongs to
  uint32_t exec_props = 0;   // EXEC_RSRC bitmap or worker-node id (policy-specific)

  // No-op retry backoff cap (the backoff starts at Executor::kInitialRetry).
  // The paper's DPDK executors re-poll every few microseconds (their no-op
  // pull loop runs at ~280 k/s, i.e. a ~3.6 us round trip); the 8 us cap
  // keeps an idle executor within a few microseconds of an arriving burst.
  TimeNs max_retry = FromMicros(8);

  // Watchdog: if neither a task nor a no-op arrives within this bound after
  // a request, re-request (covers lost packets).
  TimeNs request_timeout = FromMillis(1);

  // Data-access model: when `topology` is set, service is preceded by a data
  // fetch whose latency depends on where the task landed relative to its
  // data-local node (Executor::kRackAccess / kRemoteAccess).
  const core::Topology* topology = nullptr;

  // No-op executor mode for the throughput benchmark (Fig. 5b): drop the
  // task immediately and request the next one.
  bool drop_tasks = false;
};

class Executor;

// Takes over idle poll trains (implemented by core::PollRoster).
class PollParking {
 public:
  virtual ~PollParking() = default;
  // `executor` will pull its scheduler at `next_pull`: it just took a no-op,
  // or it is sending a pure task_request now (next_pull == Now()). Returns
  // true if the roster took the train over; the executor then sends nothing
  // and arms no timer until the roster resumes it.
  virtual bool TryPark(Executor* executor, TimeNs next_pull) = 0;
};

class Executor : public TaskRunner {
 public:
  // The first no-op retry interval; it doubles up to ExecutorConfig::max_retry.
  static constexpr TimeNs kInitialRetry = FromMicros(2);
  // Fig. 10's data fetch: free on the data-local node, 20 us within its
  // rack, 100 us across racks.
  static constexpr TimeNs kLocalAccess = 0;
  static constexpr TimeNs kRackAccess = FromMicros(20);
  static constexpr TimeNs kRemoteAccess = FromMicros(100);

  // Registers itself on the testbed's fabric. The testbed must outlive the
  // executor.
  Executor(Testbed* testbed, const ExecutorConfig& config);

  // Schedules the first task request toward `scheduler` at time `at`.
  void Start(net::NodeId scheduler, TimeNs at);

  // §3.3 failover: point future pulls at a replacement scheduler. The
  // request watchdog re-issues any pull lost to the failed switch.
  void Rehome(net::NodeId scheduler);

  // The roster that may park this executor's idle polls (nullable).
  void SetParking(PollParking* parking) {
    if (parking != parking_) {
      parking_ = parking;
      parking_slot_ = kNoParkingSlot;
    }
  }
  // The roster's own index for this executor, kept here so that a park
  // finds it without a lookup; kNoParkingSlot until the roster sets it.
  static constexpr uint32_t kNoParkingSlot = UINT32_MAX;
  uint32_t parking_slot() const { return parking_slot_; }
  void set_parking_slot(uint32_t slot) { parking_slot_ = slot; }

  // --- Poll fast-forward seam (core/poll_roster.h) -------------------------
  // The state a parked poll train advances.
  struct PollState {
    Rng rng{0};
    TimeNs retry_interval = 0;
    TimeNs last_request_time = -1;
  };
  PollState poll_state() const { return PollState{rng_, retry_interval_, last_request_time_}; }
  // Hands a train back: restores its state and arms the pull timer at
  // `timer_at` (the next pull, or the watchdog of a pull in flight).
  void Resume(const PollState& state, TimeNs timer_at);
  // The no-op backoff: the delay before the next pull, jittered +-50%
  // around `retry_interval`, which then doubles up to `max_retry`. The eager
  // path and the fast-forward both advance a train through this call.
  static TimeNs NextPollDelay(Rng& rng, TimeNs& retry_interval, TimeNs max_retry) {
    // Jittered by +-50% so an idle fleet's polls stay desynchronized (a
    // fixed period phase-locks the pollers and opens dead zones as long as
    // the period).
    const TimeNs wait = retry_interval / 2 + static_cast<TimeNs>(rng.NextBelow(retry_interval));
    retry_interval = std::min(retry_interval * 2, max_retry);
    return std::max<TimeNs>(wait, 1);
  }
  TimeNs max_retry() const { return config_.max_retry; }
  // A task_request toward the current scheduler.
  net::Packet MakeRequest() const;
  TimeNs request_timeout() const { return config_.request_timeout; }

  // net::Endpoint:
  void HandlePacket(net::Packet&& pkt) override;
  // sim::EventSink: the pull and fetch timers, and the task end.
  void OnEvent(uint32_t core, uint32_t kind) override;

 private:
  enum : uint32_t { kPullEvent = kTaskEnd + 1, kFetchEvent };  // OnEvent's kinds

  void SendRequest();
  void RunTask(net::Packet&& assignment);
  // Runs the task held on `core` (data access + service); its end sends the
  // completion (TaskDone).
  void Execute(uint32_t core, TimeNs access, bool first);
  void SendParamFetch();
  // TaskRunner:
  void TaskDone(uint32_t core, net::TaskInfo task, net::NodeId client) override;

  ExecutorConfig config_;
  PollParking* parking_ = nullptr;
  uint32_t parking_slot_ = kNoParkingSlot;

  Rng rng_;
  TimeNs retry_interval_;
  TimeNs last_request_time_ = -1;
  // Reusable pull timer: serves both the request watchdog and the no-op
  // retry backoff (both re-issue the pull), so the hottest periodic path in
  // the simulation never allocates per occurrence.
  sim::Timer pull_timer_;

  // In-flight §4.4 parameter fetch (at most one task is held at a time, on
  // core slot fetch_core_).
  bool fetch_pending_ = false;
  bool fetch_first_ = false;
  uint32_t fetch_core_ = 0;
  TimeNs fetch_access_ = 0;
  sim::Timer fetch_timer_;
};

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_EXECUTOR_H_
