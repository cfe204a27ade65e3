// Frontier-at-a-time DAG execution on top of cluster::Client (docs/dag.md).
//
// A FrontierDriver owns every DAG job routed to one client. It submits each
// job's ready set (tasks whose dependencies all completed) as one SubmitJob
// batch, consumes the client's per-task completion callback to unlock
// successors, and — when hedging is enabled — arms a cancellable per-task
// timer that issues a duplicate through the §8.3 suppression path once the
// task's age crosses a quantile of the observed task latencies. The first
// replica to complete wins; the loser is cancelled client-side and its
// execution is charged to wasted work.
//
// Determinism: the driver consumes randomness only when a hedge duplicate
// re-draws its service time, from its own SeedDomain::kDag stream — so a
// hedging-off run is bit-identical across repeats, and sweeps stay
// parallel == serial (each point owns its driver).

#ifndef DRACONIS_DAG_FRONTIER_DRIVER_H_
#define DRACONIS_DAG_FRONTIER_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/experiment.h"
#include "cluster/job_slots.h"
#include "cluster/testbed.h"
#include "common/rng.h"
#include "dag/job_spec.h"
#include "sim/simulator.h"

namespace draconis::dag {

// When and how to hedge a straggler (docs/dag.md "Hedging policy").
struct HedgePolicy {
  bool enabled = false;
  // Hedge a task once its age exceeds multiplier x the `quantile` of the
  // driver's observed task latencies (submit -> first completion)...
  double quantile = 0.95;
  double multiplier = 1.0;
  // ...but never sooner than this floor, and only after `min_samples`
  // latencies have been observed; before that, `initial_delay` applies.
  TimeNs min_delay = FromMicros(200);
  TimeNs initial_delay = FromMillis(2);
  uint64_t min_samples = 32;
  // Executor-side straggler model: the duplicate re-draws its service time
  // from the task's stage model (the straggler is the placement, not the
  // task). false replays the original duration — then hedging only beats
  // lost packets and queue-full storms, not slow executors.
  bool resample_service = true;

  std::string Validate() const;  // "" when well-formed
};

// The driver is the sink of its hedge timers: each fires as
// OnEvent(jid, tid), so no closure is built per task. Job arrivals have a
// sink of their own.
class FrontierDriver : public sim::EventSink {
 public:
  // The driver records into the testbed's simulator/metrics and drives
  // `client` (installing itself as the client's completion callback on
  // Start). `workload` supplies the stage service models hedge resampling
  // draws from; testbed and client must outlive the driver.
  FrontierDriver(cluster::Testbed* testbed, cluster::Client* client,
                 const DagWorkloadSpec& workload, const HedgePolicy& hedge);

  // Declares one job. Call before Start; arrivals may be in any order.
  void EnqueueJob(TimeNs at, JobSpec spec);

  // Schedules every enqueued job's arrival and hooks the client.
  void Start();

  // All enqueued jobs ran to completion (for run_to_completion drains).
  bool done() const { return jobs_finished_ == jobs_.size(); }

  // Accumulates this driver's job-level stats into `out` (jobs / tasks
  // submitted, makespan / critical-path / stretch histograms). Counters are
  // window-gated by job arrival time, mirroring MetricsHub's first-submit
  // gating for tasks.
  void Harvest(cluster::DagRunStats* out) const;

 private:
  // A job's dependency state lives in one block, `graph`, for its n tasks:
  //   [0, n)          task i's unmet dependency count
  //   [n, 2n + 1)     child_begin: task i's successors are
  //                   children[child_begin[i] .. child_begin[i + 1])
  //   [2n + 1, end)   children, the successor lists
  struct JobState {
    TimeNs arrival = 0;
    JobSpec spec;
    std::vector<uint32_t> graph;
    size_t remaining = 0;  // tasks not yet completed

    size_t tasks() const { return spec.tasks.size(); }
    uint32_t* pending_deps() { return graph.data(); }
    uint32_t* child_begin() { return graph.data() + tasks(); }
    uint32_t* children() { return graph.data() + 2 * tasks() + 1; }
  };
  struct TaskState {
    uint32_t job = 0;
    uint32_t node = 0;
    sim::EventHandle hedge_timer;
  };

  // A job's arrival event: (job index, unused).
  void StartJob(uint32_t job_index, uint32_t /*unused*/);
  // Submits the tasks in ready_ as one client job.
  void SubmitFrontier(uint32_t job_index);
  void OnCompletion(const net::TaskInfo& task, TimeNs now);
  // sim::EventSink: the hedge timer of the client's task (jid, tid) fired.
  void OnEvent(uint32_t jid, uint32_t tid) override { OnHedgeTimer(jid, tid); }
  void OnHedgeTimer(uint32_t jid, uint32_t tid);
  TimeNs HedgeDelay() const;

  sim::Simulator* simulator_;
  cluster::MetricsHub* metrics_;
  cluster::Client* client_;
  const DagWorkloadSpec workload_;
  const HedgePolicy hedge_;
  Rng resample_rng_;  // SeedDomain::kDag; consumed only on hedge launches

  sim::MemberSink<FrontierDriver, &FrontierDriver::StartJob> job_arrival_{this};
  std::vector<JobState> jobs_;
  cluster::JobSlots<TaskState> inflight_;  // by the client's (jid, tid)
  // Every completion's latency, window or not, with the hedge quantile kept
  // current.
  stats::QuantileCursor observed_latency_;
  // Per-frontier scratch, reused: the ready tasks and their client specs.
  // Client::SubmitJob never delivers a completion synchronously, so a
  // frontier is submitted before the next one is built.
  std::vector<uint32_t> ready_;
  std::vector<cluster::TaskSpec> specs_;
  // Scratch for a completed job's critical path, reused.
  std::vector<TimeNs> finish_;
  size_t jobs_finished_ = 0;
  bool started_ = false;

  // Window-gated job-level results (see Harvest).
  uint64_t jobs_submitted_ = 0;
  uint64_t jobs_completed_ = 0;
  uint64_t tasks_submitted_ = 0;
  stats::Histogram makespan_;
  stats::Histogram critical_path_;
  stats::Histogram stretch_milli_;
};

}  // namespace draconis::dag

#endif  // DRACONIS_DAG_FRONTIER_DRIVER_H_
