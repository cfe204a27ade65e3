// DAG workload declarations (docs/dag.md).
//
// A dag::JobSpec is one multi-stage job: tasks with dependency edges, each
// edge pointing at an earlier task index — the index order IS the
// topological order, so acyclicity is structural, not checked by search. A
// dag::DagWorkloadSpec declares a whole stream of such jobs (shape x
// per-stage ServiceTime x Poisson arrival rate) the same way
// workload::WorkloadSpec declares flat streams: a value type with
// Validate().
//
// Determinism contract: Generate() is a pure function of the spec. Arrivals
// consume Rng(seed); job j's structure and durations consume an independent
// stream derived from (seed, j), so the horizon never perturbs earlier jobs.

#ifndef DRACONIS_DAG_JOB_SPEC_H_
#define DRACONIS_DAG_JOB_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "workload/service_time.h"

namespace draconis::dag {

// One task of a DAG job. `deps` lists the indices of the tasks that must
// complete before this one may be submitted; every entry must be < the
// task's own index (Validate enforces it), which makes cycles unrepresentable.
struct TaskNode {
  TimeNs duration = 0;
  std::vector<uint32_t> deps;
  uint32_t stage = 0;  // generator level; selects the hedge resample model
  uint32_t tprops = 0;
  uint32_t fn_id = 0;
  uint64_t fn_par = 0;

  bool operator==(const TaskNode&) const = default;
};

// One job: tasks in topological (index) order.
struct JobSpec {
  std::vector<TaskNode> tasks;

  bool operator==(const JobSpec&) const = default;

  // "" when well-formed; a descriptive error otherwise (empty job, a
  // forward/self dependency, a negative duration, a duplicate edge).
  std::string Validate() const;

  // Duration-weighted longest dependency chain: a zero-queueing,
  // zero-network lower bound on the job's makespan. `finish` is scratch for
  // the per-task finish times, so a caller that computes many reuses one
  // buffer.
  TimeNs CriticalPathNs(std::vector<TimeNs>& finish) const;
};

// Generated DAG shapes (--dag-shape).
enum class DagShape {
  kChain,        // depth tasks in a line: 0 -> 1 -> ... -> depth-1
  kFanOutFanIn,  // 1 source -> (depth-2) levels x width, all-to-all -> 1 sink
  kRandom,       // depth x width tasks; each draws edges from a trailing
                 // window with probability edge_prob (>= 1 edge guaranteed)
};

// Round-trippable shape name ("chain", "fanout", "random").
const char* DagShapeName(DagShape shape);
bool DagShapeFromName(const std::string& name, DagShape* out);
// All registerable names, for flags and list_schedulers --workloads.
const std::vector<std::string>& DagShapeNames();

struct DagJobArrival {
  TimeNs at = 0;
  JobSpec spec;
};

// A declarative stream of DAG jobs.
struct DagWorkloadSpec {
  DagShape shape = DagShape::kFanOutFanIn;
  uint32_t depth = 3;        // levels (chain length for kChain)
  uint32_t width = 8;        // tasks per middle level (kFanOutFanIn, kRandom)
  double edge_prob = 0.25;   // kRandom: extra-edge probability
  double jobs_per_second = 200.0;  // Poisson arrival rate
  TimeNs duration = FromMillis(100);  // arrival window [0, duration)
  // Per-stage service models: stage s samples stage_services[s], falling
  // back to `service` when the list is shorter (or empty). The same model
  // feeds hedge resampling (docs/dag.md).
  workload::ServiceTime service = workload::ServiceTime::Fixed(FromMicros(500));
  std::vector<workload::ServiceTime> stage_services;
  uint64_t seed = 42;

  const workload::ServiceTime& StageService(uint32_t stage) const;
  // Tasks per generated job (a pure function of shape/depth/width).
  size_t TasksPerJob() const;
  // Mean service time across one job's stages (utilization bookkeeping).
  TimeNs MeanTaskService() const;

  std::vector<DagJobArrival> Generate() const;

  std::string Validate() const;  // "" when well-formed
};

}  // namespace draconis::dag

#endif  // DRACONIS_DAG_JOB_SPEC_H_
