// The one task-execution path every worker endpoint shares: the pull-based
// Executor (one core that requests its tasks) and the push baselines'
// workers (a machine whose cores take the tasks a scheduler pushed to it).
//
// A subclass keeps only how a task reaches a free core: the executor's
// pulls, the push workers' queueing disciplines. TaskRunner owns the fabric
// registration and every record of a task's run on a core: the first-
// execution check with the assignment and execution-start records, the busy
// interval, the wasted work, the exec_* trace spans, the node completion and
// the executions count. It also holds each core's task until the task's end
// event, whose sink is the runner itself and whose words are (core, 0).
//
// Wasted work has one definition: the in-window core time a repeat
// execution (a timeout resubmission or a hedge replica of an id that already
// executed) held, from its pickup to its end (docs/dag.md).

#ifndef DRACONIS_CLUSTER_TASK_RUNNER_H_
#define DRACONIS_CLUSTER_TASK_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/metrics.h"
#include "cluster/testbed.h"
#include "common/time.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "trace/recorder.h"

namespace draconis::cluster {

class TaskRunner : public net::Endpoint, public sim::EventSink {
 public:
  // The fabric and pending completion events hold the runner's address.
  TaskRunner(const TaskRunner&) = delete;
  TaskRunner& operator=(const TaskRunner&) = delete;

  net::NodeId node_id() const { return node_id_; }
  uint64_t tasks_executed() const { return tasks_executed_; }

  // sim::EventSink: (core, kTaskEnd) is the end of the task cores_[core]
  // held; the slot is freed and TaskDone receives the task. A subclass with
  // events of its own tells them apart by other kinds and forwards
  // kTaskEnd here.
  void OnEvent(uint32_t core, uint32_t kind) override;

 protected:
  static constexpr uint32_t kTaskEnd = 0;

  // FinishTask's credit target for a worker that returns no credit.
  static constexpr uint32_t kNoCredit = ~uint32_t{0};

  // Registers on the testbed's fabric; the testbed must outlive the runner.
  // `scheduler` receives completions or credits (it may be set later).
  // `cores` is the initial size of the core table.
  TaskRunner(Testbed* testbed, uint32_t worker_node, net::NodeId scheduler,
             const net::HostProfile& profile, size_t cores);

  // A core's task, held from the moment the core takes it (or, on an
  // executor, from its parameter fetch) to its end.
  struct CoreSlot {
    net::TaskInfo task;
    net::NodeId client = net::kInvalidNode;
    bool busy = false;
  };

  // An assignment for `task` was delivered now. `detail` is an executor's
  // request round trip; `duplicate` marks an arrival already known to repeat
  // an execution (an executor knows at arrival, a push worker at pickup).
  void Arrive(const net::TaskInfo& task, uint64_t detail = 0, bool duplicate = false);

  // A core takes `task` now. True for the id's first execution, whose
  // assignment is recorded; a repeat runs but is not measured.
  bool Pickup(const net::TaskInfo& task);

  // The core that took `task` at `pickup` starts its service (`access` plus
  // the task's exec_duration) at `exec_start`: records the execution start
  // and the kExecPickup span, and counts the execution.
  void BeginService(const net::TaskInfo& task, bool first, TimeNs pickup, TimeNs exec_start,
                    TimeNs access = 0);

  // The kExecService span: the task's service ran over [begin, end).
  void RecordService(const net::TaskInfo& task, bool first, TimeNs begin, TimeNs end);

  // A core that took `task` now runs it alone; service starts after
  // `overhead` (the pickup, plus any dispatch). The core is busy from now to
  // the end, and for a repeat that occupancy's in-window part is wasted work.
  // Returns the completion time.
  TimeNs Run(const net::TaskInfo& task, bool first, TimeNs overhead = kPickupOverhead,
             TimeNs access = 0);

  // Schedules the end of the task held in cores_[core] at `done`.
  void EndAt(TimeNs done, uint32_t core) { simulator_->ScheduleAt(done, this, core, kTaskEnd); }
  // The task that cores_[core] held ended now; the slot is free again.
  virtual void TaskDone(uint32_t core, net::TaskInfo task, net::NodeId client) = 0;

  // The task finished now.
  void Finish() { metrics_->RecordNodeCompletion(worker_node_, simulator_->Now()); }

  // A pushed task finished now: Finish, return a credit for `credit_target`
  // to the scheduler (carrying the task's measured sojourn when
  // `report_sojourn`), and send the client its completion notice.
  void FinishTask(net::TaskInfo task, net::NodeId client, uint32_t credit_target,
                  bool report_sojourn = false);

  sim::Simulator* simulator_;
  net::Network* network_;
  MetricsHub* metrics_;
  trace::Recorder* recorder_;
  uint32_t worker_node_;
  net::NodeId scheduler_;
  net::NodeId node_id_;
  uint64_t tasks_executed_ = 0;
  std::vector<CoreSlot> cores_;
};

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_TASK_RUNNER_H_
