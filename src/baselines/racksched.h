// RackSched (paper §2.2, OSDI '20), rebuilt from scratch: a two-layer
// scheduler with an in-switch inter-node component and a worker-side
// intra-node component.
//
// Inter-node: the switch tracks an estimated queue length per worker node,
// samples two distinct nodes per task (power-of-two choices), pushes the task
// to the shorter queue, and increments that node's estimate. Completions
// piggyback a correction that decrements the estimate. The rule runs on the
// shared push program (push_program.h); RackSched's real P4 program keeps
// replicated copies of the queue-length array across stages to satisfy the
// one-access-per-register rule.
//
// Intra-node: each worker runs a dispatcher that adds a few microseconds of
// overhead per task — the overhead visible in the paper's Fig. 5a/6 even at
// low load. Three intra-node policies, the first two as RackSched prescribes
// (§2.2), each its own scheduler kind:
//   - cFCFS without preemption (the RackSched kind; their recommendation for
//     light-tailed workloads and the one in the paper's comparison), and
//   - Processor Sharing with preemption (the RackSched-PS kind; their
//     recommendation for heavy-tailed workloads): all admitted tasks share
//     the node's cores equally, so short tasks are not stuck behind long
//     ones, and
//   - EDF without preemption (the RackSched-EDF kind): the dispatcher
//     picks the queued task with the earliest absolute deadline
//     (enqueue_time + TPROPS us, the deadline-tagger encoding); untagged
//     streams degenerate to cFCFS because every deadline equals the enqueue
//     time.

#ifndef DRACONIS_BASELINES_RACKSCHED_H_
#define DRACONIS_BASELINES_RACKSCHED_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "baselines/push_program.h"
#include "cluster/task_runner.h"
#include "cluster/testbed.h"
#include "common/rng.h"
#include "common/time.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace draconis::baselines {

// The intra-node dispatcher; each push registry line names its own
// (cluster/deployment.cc).
enum class IntraNodePolicy {
  kFcfs,              // run-to-completion, no preemption (light-tailed)
  kProcessorSharing,  // preemptive equal sharing of the cores (heavy-tailed)
  kEdf,               // earliest-deadline-first over the TPROPS deadline tags
};

// Power-of-two choices over one target per worker node.
class RackSchedProgram : public PushProgram {
 public:
  RackSchedProgram(size_t num_nodes, uint64_t seed);

 private:
  size_t Select(TimeNs now) override;

  Rng rng_;
};

// Worker node: one queue feeding `num_executors` cores through an intra-node
// dispatcher that costs kDispatchOverhead per task.
class RackSchedWorker : public cluster::TaskRunner {
 public:
  // The intra-node dispatcher's cost per task.
  static constexpr TimeNs kDispatchOverhead = TimeNs{3500};

  // When `report_latency` is set, completion credits carry the task's
  // measured sojourn (completion - enqueue_time) in summary_depth — the
  // feedback signal the Malcolm-style balancer steers by.
  RackSchedWorker(cluster::Testbed* testbed, size_t num_executors, uint32_t worker_node,
                  net::NodeId scheduler, IntraNodePolicy policy = IntraNodePolicy::kFcfs,
                  bool report_latency = false);

  // net::Endpoint:
  void HandlePacket(net::Packet&& pkt) override;
  // sim::EventSink: the processor-sharing admission and reschedule, and the
  // task end.
  void OnEvent(uint32_t core, uint32_t kind) override;

 private:
  enum : uint32_t { kPsAdmitEvent = kTaskEnd + 1, kPsRescheduleEvent };  // OnEvent's kinds

  // --- cFCFS / EDF mode ---
  void TryDispatch();
  // TaskRunner:
  void TaskDone(uint32_t core, net::TaskInfo task, net::NodeId client) override;
  // The queue index to run next: front for cFCFS, the earliest absolute
  // deadline (stable on ties) for EDF.
  size_t NextQueueIndex() const;

  // --- Processor-Sharing mode ---
  struct PsTask {
    net::TaskInfo task;
    net::NodeId client = net::kInvalidNode;
    bool first = false;      // the id's first execution
    TimeNs admitted = 0;     // joined the pool
    double remaining = 0.0;  // ns of work left at full-core speed
  };
  // Admits the oldest task in ps_admitting_: every admission waits the same
  // dispatch overhead, so they fire in arrival order.
  void PsAdmit();
  // Ages all running tasks to `now` at the current sharing rate and
  // reschedules the next-completion event.
  void PsReschedule();
  double PsRate() const;  // per-task service rate (cores / tasks, capped at 1)

  IntraNodePolicy policy_;
  bool report_latency_;

  std::deque<CoreSlot> queue_;  // cFCFS / EDF: arrived, waiting for a core

  std::deque<CoreSlot> ps_admitting_;  // arrived, waiting for the dispatcher
  std::vector<PsTask> ps_tasks_;
  TimeNs ps_last_update_ = 0;
  sim::EventHandle ps_completion_;
};

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_RACKSCHED_H_
