// Scheduler-agnostic counter aggregate.
//
// Every scheduler kind (the Draconis switch program, the push-based
// baselines, the central servers, Sparrow) counts straight into a
// SchedulerCounters it owns, and a deployment's Harvest adds its instances'
// counters into ExperimentResult::counters. ExperimentResult — and every
// bench TU including it — therefore does not depend on the per-scheduler
// headers. Fields a scheduler does not produce stay zero; adding a counter
// means appending it here (and to operator+=, which the static_assert below
// enforces) and to the sweep report writer.

#ifndef DRACONIS_CLUSTER_SCHEDULER_COUNTERS_H_
#define DRACONIS_CLUSTER_SCHEDULER_COUNTERS_H_

#include <cstdint>

namespace draconis::cluster {

struct SchedulerCounters {
  // Queue/decision path (Draconis switch + central servers).
  uint64_t tasks_enqueued = 0;
  uint64_t tasks_assigned = 0;
  uint64_t noops_sent = 0;
  uint64_t queue_full_errors = 0;
  uint64_t acks_sent = 0;

  // Draconis pointer-repair and swap machinery (§4.5, locality/resource).
  uint64_t add_repairs = 0;
  uint64_t retrieve_repairs = 0;
  uint64_t swap_walks_started = 0;
  uint64_t swap_exchanges = 0;
  uint64_t swap_requeues = 0;    // walks that ended by re-enqueueing the task
  uint64_t priority_probes = 0;  // task_request recirculations across levels

  // Push-based baselines (R2P2, RackSched(-EDF), Malcolm).
  uint64_t tasks_pushed = 0;
  // Submission passes that found no target and recirculated (R2P2's
  // recirculate-when-full).
  uint64_t credit_wait_recirculations = 0;
  uint64_t credits = 0;

  // Sparrow.
  uint64_t probes_sent = 0;
  uint64_t tasks_launched = 0;
  uint64_t empty_get_tasks = 0;  // reservations cancelled by late binding

  // Central server.
  uint64_t parked_requests = 0;  // pulls that waited for a task

  // §3.3 failover (src/fault/): standby promotions executed this run.
  uint64_t failovers = 0;

  SchedulerCounters& operator+=(const SchedulerCounters& o);
};

// A new field fails this until it is summed below.
static_assert(sizeof(SchedulerCounters) == 19 * sizeof(uint64_t),
              "add the new SchedulerCounters field to operator+=");

inline SchedulerCounters& SchedulerCounters::operator+=(const SchedulerCounters& o) {
  tasks_enqueued += o.tasks_enqueued;
  tasks_assigned += o.tasks_assigned;
  noops_sent += o.noops_sent;
  queue_full_errors += o.queue_full_errors;
  acks_sent += o.acks_sent;
  add_repairs += o.add_repairs;
  retrieve_repairs += o.retrieve_repairs;
  swap_walks_started += o.swap_walks_started;
  swap_exchanges += o.swap_exchanges;
  swap_requeues += o.swap_requeues;
  priority_probes += o.priority_probes;
  tasks_pushed += o.tasks_pushed;
  credit_wait_recirculations += o.credit_wait_recirculations;
  credits += o.credits;
  probes_sent += o.probes_sent;
  tasks_launched += o.tasks_launched;
  empty_get_tasks += o.empty_get_tasks;
  parked_requests += o.parked_requests;
  failovers += o.failovers;
  return *this;
}

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_SCHEDULER_COUNTERS_H_
