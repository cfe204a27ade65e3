// Draconis client (paper §3.1, §4.3).
//
// Submits single tasks or batches of independent tasks as job_submission
// packets (large jobs are split across packets at the MTU boundary), tracks
// outstanding tasks, retries queue-full errors after a short wait, and
// resubmits tasks whose completion notice does not arrive within the timeout
// (2x the task's execution time by default, matching §8.3).

#ifndef DRACONIS_CLUSTER_CLIENT_H_
#define DRACONIS_CLUSTER_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "cluster/job_slots.h"
#include "cluster/metrics.h"
#include "cluster/testbed.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "topology/fabric.h"
#include "trace/recorder.h"
#include "workload/spec.h"

namespace draconis::cluster {

using TaskSpec = workload::TaskSpec;

struct ClientConfig {
  uint32_t uid = 0;
  double timeout_multiplier = 2.0;          // timeout = multiplier x duration
  TimeNs timeout_floor = FromMicros(50);    // lower bound (covers no-op tasks)
  size_t max_tasks_per_packet = 0;          // 0: use the MTU-derived maximum
  // Fire-and-forget mode for closed-loop throughput benches: no outstanding
  // tracking, no timeouts, errors ignored.
  bool fire_and_forget = false;
  // Multi-rack placement (docs/topology.md): when set, every submission
  // packet's destination ToR is chosen by the home rack's router instead of
  // going straight to `scheduler_`. Owned by the deployment; must outlive
  // the client. Null = legacy single-switch routing.
  topology::SubmissionRouter* router = nullptr;
  net::HostProfile host_profile = net::HostProfile::Dpdk(TimeNs{150});
};

// The client is the sink of its own task timeouts: each fires as
// OnEvent(jid, tid), so no closure is built per task.
class Client : public net::Endpoint, public sim::EventSink {
 public:
  // How long a job the scheduler refused as queue-full waits before resubmission.
  static constexpr TimeNs kQueueFullRetryWait = FromMicros(50);
  // §3.3: consecutive timeouts (no completion in between) before the client
  // falls back to the standby scheduler, when one is set via SetStandby.
  static constexpr uint32_t kRehomeAfterTimeouts = 2;

  // Registers itself on the testbed's fabric; records into its metrics hub
  // and (when tracing) its recorder. The testbed must outlive the client.
  Client(Testbed* testbed, const ClientConfig& config);

  net::NodeId node_id() const { return node_id_; }
  uint32_t uid() const { return config_.uid; }

  // The scheduler address all submissions go to.
  void SetScheduler(net::NodeId scheduler) { scheduler_ = scheduler; }

  // §3.3 failover fallback. Clients are not told about a failover; after
  // kRehomeAfterTimeouts consecutive timeouts they swap scheduler and
  // standby (ping-pong, so a spurious rehome can never strand the client on
  // a dead standby — the next timeout streak swaps back).
  void SetStandby(net::NodeId standby) { standby_ = standby; }

  // Submits a batch of independent tasks as one job (possibly multiple
  // packets). Returns the job id.
  uint32_t SubmitJob(const std::vector<TaskSpec>& tasks);

  // Invoked once per tracked task, when its *first* completion notice is
  // accepted (after the client's own bookkeeping). Duplicate notices are
  // suppressed before the callback, so a DAG driver sees each task exactly
  // once. Not invoked for fire-and-forget clients.
  using CompletionCallback = std::function<void(const net::TaskInfo&, TimeNs now)>;
  void SetCompletionCallback(CompletionCallback cb) { on_completion_ = std::move(cb); }

  // Straggler hedging (docs/dag.md): issues a duplicate of an outstanding
  // task through the §8.3 resubmission path — same TaskId, attempt + 1, so
  // whichever replica completes first wins and the loser's notice is
  // suppressed as a duplicate. `resampled_duration` >= 0 re-declares the
  // duplicate's execution time (the executor-side straggler model); -1 keeps
  // the original. At most one hedge per task. Returns false (and does
  // nothing) when the task already completed or was already hedged.
  bool HedgeTask(net::TaskId id, TimeNs resampled_duration = -1);

  // Client-side cancellation: stops tracking an outstanding task (cancels
  // its timeout, counts a cancellation, marks the trace). The replica in
  // flight still runs — its execution is accounted as wasted work — but its
  // completion notice will be suppressed. Cancelling a task that already
  // completed (or was never submitted) is a strict no-op returning false: no
  // counter moves, so double cancels cannot double-count.
  bool CancelTask(net::TaskId id);

  // net::Endpoint:
  void HandlePacket(net::Packet&& pkt) override;

  // Tasks submitted but not yet completed.
  size_t outstanding() const { return outstanding_.open(); }
  uint64_t completions() const { return completions_; }

 private:
  struct Pending {
    net::TaskInfo task;
    sim::EventHandle timeout;
    bool hedged = false;
    uint32_t hedge_attempt = 0;  // the duplicate's attempt number
  };

  // Task `tid` of job `jid` as the client submits it at `now`.
  net::TaskInfo MakeTask(const TaskSpec& spec, uint32_t jid, uint32_t tid, TimeNs now) const;
  // Resubmits `tasks` (one job's), split into packets as SubmitJob splits.
  void SendTasks(net::TaskList&& tasks);
  // Addresses a job_submission carrying pkt.tasks and sends it.
  void SendSubmission(net::Packet&& pkt);
  // The tracked state of an outstanding task; null when `id` is not one.
  Pending* FindPending(const net::TaskId& id);
  // (Re)arms the timeout of the outstanding task (jid, tid).
  void ArmTimeout(Pending& pending, uint32_t jid, uint32_t tid);
  // sim::EventSink: a task timeout fired.
  void OnEvent(uint32_t jid, uint32_t tid) override { OnTimeout(jid, tid); }
  void OnTimeout(uint32_t jid, uint32_t tid);
  // The oldest queue-full retry batch is due: every batch waits
  // kQueueFullRetryWait, so they come due in the order they were queued.
  void OnRetry(uint32_t /*unused*/, uint32_t /*unused*/);
  TimeNs TimeoutFor(const net::TaskInfo& task) const;

  sim::Simulator* simulator_;
  net::Network* network_;
  MetricsHub* metrics_;
  trace::Recorder* recorder_ = nullptr;
  ClientConfig config_;
  net::NodeId node_id_;
  net::NodeId scheduler_ = net::kInvalidNode;
  net::NodeId standby_ = net::kInvalidNode;
  uint32_t next_jid_ = 0;
  uint64_t completions_ = 0;
  CompletionCallback on_completion_;
  uint32_t consecutive_timeouts_ = 0;
  TimeNs last_rehome_time_ = -1;  // timeouts of older attempts don't rehome
  JobSlots<Pending> outstanding_;  // by (jid, tid) of this client's uid
  std::deque<net::TaskList> retries_;  // queue-full retry batches, oldest first
  sim::MemberSink<Client, &Client::OnRetry> retry_{this};
};

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_CLIENT_H_
