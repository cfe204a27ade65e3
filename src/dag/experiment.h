// One-call DAG experiment harness (docs/dag.md).
//
// RunDagExperiment is cluster::RunExperiment with a DAG job source: the one
// orchestrator builds the testbed, the deployment, the clients and the fault
// plan, and the source gives each client a dag::FrontierDriver, deals jobs
// round-robin across the drivers (each submits frontiers and optionally
// hedges stragglers), and adds the job-level DagRunStats block beside the
// usual task-level metrics. The source lives here rather than in
// src/cluster/ because the driver sits *above* the client: cluster must not
// depend on dag.

#ifndef DRACONIS_DAG_EXPERIMENT_H_
#define DRACONIS_DAG_EXPERIMENT_H_

#include "cluster/experiment.h"
#include "dag/frontier_driver.h"
#include "dag/job_spec.h"

namespace draconis::dag {

// Runs `workload` (DAG jobs) under `hedge` on the cluster described by
// `config`, fault plans and multi-rack topologies included. The config's own
// workload/stream must be empty (the DAG spec is the workload), and no-op
// executors are refused: their clients are fire-and-forget, so no completion
// would ever unlock a successor. Every registered scheduler kind works: the
// driver only talks to the client API.
cluster::ExperimentResult RunDagExperiment(const cluster::ExperimentConfig& config,
                                           const DagWorkloadSpec& workload,
                                           const HedgePolicy& hedge);

}  // namespace draconis::dag

#endif  // DRACONIS_DAG_EXPERIMENT_H_
