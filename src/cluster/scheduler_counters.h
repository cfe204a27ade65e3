// Scheduler-agnostic counter aggregate harvested after a run.
//
// Every scheduler kind (the Draconis switch program, the push-based
// baselines, the central servers, Sparrow) reports into this one flat
// struct, so ExperimentResult — and every bench TU including it — no longer
// depends on the per-scheduler headers. Fields a scheduler does not produce
// stay zero; adding a scheduler means harvesting into existing fields (or
// appending one here), not widening the public experiment API.

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
  uint64_t swap_requeues = 0;
  uint64_t priority_probes = 0;  // task_request recirculations across levels

  // Push-based baselines (R2P2, RackSched(-EDF), Malcolm).
  uint64_t tasks_pushed = 0;
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
};

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_SCHEDULER_COUNTERS_H_
