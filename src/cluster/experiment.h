// One-call experiment harness. RunExperiment is the single, kind-blind
// experiment orchestrator: it builds a cluster::Testbed (cluster/testbed.h)
// from the config, resolves the configured SchedulerKind through the
// DeploymentRegistry (cluster/deployment.h) into a SchedulerDeployment —
// which owns all kind-specific construction, wiring, client quirks, and
// counter harvest — builds the clients, arms the fault plan, lets a JobSource
// drive the clients, and derives the summary statistics. The flat path
// replays the config's job stream; dag::RunDagExperiment passes a DAG source
// (src/dag/experiment.h). Every figure-reproduction bench in bench/ is a thin
// sweep over one of the two (see src/sweep/ for the parallel sweep engine
// that drives them).
//
// This header is the public experiment API: it deliberately avoids the
// per-scheduler baseline headers (their counters are flattened into
// SchedulerCounters) so that adding or reworking a scheduler does not ripple
// through every bench TU. Adding a scheduler kind means adding one
// deployment file pair next to the scheduler (or a selection rule for the
// shared push deployment) and one registry line — see DESIGN.md ("Testbed &
// deployments").

#ifndef DRACONIS_CLUSTER_EXPERIMENT_H_
#define DRACONIS_CLUSTER_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/intra_node_policy.h"
#include "cluster/executor.h"
#include "cluster/metrics.h"
#include "cluster/scheduler_counters.h"
#include "core/policy.h"
#include "core/rank_function.h"
#include "fault/plan.h"
#include "net/network.h"
#include "p4/pipeline.h"
#include "sim/event_queue.h"
#include "topology/topology.h"
#include "trace/recorder.h"
#include "workload/spec.h"
#include "workload/workload.h"

namespace draconis::cluster {

enum class SchedulerKind {
  kDraconis,            // in-network scheduler on the switch model
  kDraconisDpdkServer,  // same protocol, DPDK server
  kDraconisSocketServer,
  kR2P2,
  kRackSched,
  kSparrow,
  kMalcolm,       // latency-distribution-aware balancer (baselines/malcolm.h)
  kRackSchedEdf,  // RackSched with an EDF intra-node dispatcher
};

// Canonical display name ("Draconis", "R2P2", ...).
const char* SchedulerKindName(SchedulerKind kind);

// Parses a scheduler name — the canonical display name or its lower-case
// flag spelling ("draconis", "dpdk-server", "socket-server", "r2p2",
// "racksched", "sparrow", "malcolm", "racksched-edf") — into *out. Returns
// false on an unknown name.
bool SchedulerKindFromName(const std::string& name, SchedulerKind* out);

enum class PolicyKind { kFcfs, kPriority, kResource, kLocality };

// Policy name ("fcfs", "priority", "resource", "locality").
const char* PolicyKindName(PolicyKind kind);

struct ExperimentConfig {
  SchedulerKind scheduler = SchedulerKind::kDraconis;
  PolicyKind policy = PolicyKind::kFcfs;

  // Cluster shape (paper testbed: 10 workers x 16 executors).
  size_t num_workers = 10;
  size_t executors_per_worker = 16;
  size_t num_racks = 3;
  size_t num_clients = 4;
  size_t num_schedulers = 1;  // Sparrow deployments may run several

  // Multi-rack physical topology (docs/topology.md). When enabled (>= 1
  // rack), the rack specs replace num_workers/executors_per_worker as the
  // cluster shape, the deployment builds one ToR switch per rack, and
  // clients home to racks per cluster.client_homing. Disabled (empty) runs
  // the legacy single-switch layout. Not to be confused with num_racks,
  // which is the locality *policy's* data-rack count.
  topology::ClusterTopology cluster{};

  // Scheduler-specific knobs.
  uint32_t jbsq_k = 3;                                   // R2P2
  baselines::IntraNodePolicy racksched_intra_policy =
      baselines::IntraNodePolicy::kFcfs;                 // RackSched (§2.2)
  size_t priority_levels = 4;                            // Draconis priority
  core::LocalityPolicy::Limits locality_limits{};        // Draconis locality
  bool locality_access_model = false;                    // data-fetch penalty
  std::vector<uint32_t> worker_resources;                // resource bitmaps
  size_t queue_capacity = 164 * 1024;
  bool shadow_copy_dequeue = true;  // false: the paper's §4.5 textbook dequeue
  // Switch queueing discipline (docs/pifo.md). kFifo is the paper's circular
  // queue; any other value replaces it with a rank-ordered PIFO and needs a
  // PIFO-capable kind (DeploymentInfo::switch_policies) plus the fcfs policy
  // (rank order replaces the per-level/swap machinery of the other policies).
  core::SwitchPolicy switch_policy = core::SwitchPolicy::kFifo;
  std::vector<uint32_t> wfq_weights = {1, 1};  // per-tenant weights (TPROPS = tenant)

  // Workload and run control. The declarative spec (docs/workloads.md) is
  // the canonical path: when workload.enabled(), RunExperiment generates the
  // job stream from it and `stream` must stay empty. The explicit `stream`
  // remains for tests that hand-craft arrivals.
  workload::WorkloadSpec workload{};
  workload::JobStream stream;
  TimeNs warmup = FromMillis(20);
  TimeNs horizon = 0;            // 0: last arrival + 50 ms
  TimeNs drain_margin = FromMillis(50);  // extra sim time past the horizon
  bool run_to_completion = false;  // stop when all clients drain (Figs. 11/12)
  bool noop_executors = false;     // Fig. 5b throughput mode
  // The paper uses 2x the execution time and notes typical clients use
  // 5-10x; 3x keeps baseline resubmission storms from dominating on our
  // slightly slower simulated substrate.
  double timeout_multiplier = 3.0;
  TimeNs timeout_floor = FromMicros(50);
  size_t max_tasks_per_packet = 0;  // 0: kind-appropriate default
  TimeNs node_series_bucket = kSecond;

  p4::PipelineConfig pipeline{};
  net::NetworkConfig network{};
  ExecutorConfig executor_template{};
  uint64_t seed = 1;

  // Event-queue backend for the simulator (sim/event_queue.h). Both backends
  // produce bit-identical results; ladder is faster on large runs, so this
  // is a speed knob, not a behaviour knob (--sim-queue on the benches).
  sim::QueueBackend sim_queue = sim::kDefaultQueueBackend;

  // Task-lifecycle tracing (docs/observability.md). Sampling is a pure hash
  // of the task id, so enabling it cannot perturb results.
  trace::TraceConfig trace{};

  // Deterministic fault timeline (docs/fault_injection.md). An empty plan is
  // bit-identical to no plan; a scheduler_failover event additionally builds
  // a standby scheduler and is only valid for kinds whose deployment
  // supports it (DeploymentInfo::failover).
  fault::FaultPlan fault_plan{};
  // During->post boundary for the phase-split latency histograms when the
  // plan's last event never clears (e.g. a failover): completions after
  // `last event start + fault_settle` count as post-fault.
  TimeNs fault_settle = FromMillis(5);

  // Checks the config for contradictions the simulation would otherwise hide
  // (zero-sized cluster, a policy the chosen scheduler silently ignores, a
  // short worker_resources table, replicating a single-instance scheduler, a
  // warmup past the horizon) and for values a layer below would abort on (a
  // zero-slot queue, JBSQ(0), a NaN timeout multiplier, ...). Returns an
  // empty string when valid, a descriptive error otherwise. RunExperiment
  // refuses invalid configs.
  // The horizon check uses `last_arrival` when given (a JobSource's), the
  // config's own workload or stream otherwise.
  std::string Validate(std::optional<TimeNs> last_arrival = std::nullopt) const;
};

// §3.3 recovery metrics, filled only when the config carried a fault plan.
// Times are -1 when the underlying event never happened (nothing completed
// after the onset, ...). See docs/fault_injection.md for definitions.
struct RecoveryStats {
  bool fault_plan_active = false;
  TimeNs fault_start = -1;          // earliest event onset
  TimeNs fault_clear = -1;          // during->post boundary used for phases
  TimeNs time_to_recover = -1;      // onset -> first completion after it
  TimeNs unavailability = -1;       // completion gap spanning the onset
  uint64_t tasks_resubmitted = 0;   // timeout resubmissions over the run
  uint64_t tasks_lost = 0;          // submitted tasks never completed
  uint64_t client_rehomes = 0;      // clients that fell back to the standby
  uint64_t executor_rehomes = 0;    // executors re-pointed at the standby
  uint64_t packets_dropped = 0;     // fabric drops (faults + disconnects)
  uint64_t fault_events_started = 0;
  uint64_t fault_events_cleared = 0;
};

// Per-job results of a DAG workload run (src/dag/, docs/dag.md). Inactive
// (active == false, the default) for plain open-loop experiments; the sweep
// JSON emits the block only when active, so legacy goldens stay byte-equal.
// Job-level definitions: makespan = job arrival -> last task completion;
// critical path = the spec's duration-weighted longest dependency chain (a
// zero-queueing, zero-network lower bound on makespan); stretch = makespan /
// critical path in 1/1000ths. Only jobs arriving inside the measurement
// window count.
struct DagRunStats {
  bool active = false;
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t tasks_submitted = 0;  // first attempts across submitted frontiers
  uint64_t hedges_launched = 0;
  uint64_t hedge_wins = 0;           // races the duplicate replica won
  uint64_t replicas_cancelled = 0;   // client-side cancellations
  TimeNs wasted_work = 0;            // executor time burnt on duplicates
  double wasted_work_fraction = 0.0; // wasted_work / total executor busy time
  stats::Histogram makespan;
  stats::Histogram critical_path;
  stats::Histogram stretch_milli;
};

struct ExperimentResult {
  std::unique_ptr<MetricsHub> metrics;

  // Populated (and finalized) when config.trace.enabled; null otherwise.
  std::unique_ptr<trace::Recorder> trace;

  // Switch-side observability (zeroed for pure server schedulers).
  p4::PipelineCounters switch_counters{};

  // Whichever scheduler ran reports into this flat aggregate; fields the
  // scheduler does not produce stay zero.
  SchedulerCounters counters{};

  double recirculation_share = 0.0;  // recirculated / processed passes
  uint64_t recirc_drops = 0;
  double drop_fraction = 0.0;  // tasks dropped at the switch / tasks offered

  double offered_tasks_per_second = 0.0;
  double offered_utilization = 0.0;  // offered work / cluster service capacity
  double throughput_tps = 0.0;       // completions (or no-op pulls) per second
  double executor_busy_fraction = 0.0;
  TimeNs drain_time = -1;  // when the last task completed (run_to_completion)
  // Host cost of the run: simulator events executed, and fabric packets
  // handed to their endpoint (elided idle polls included).
  uint64_t events_executed = 0;
  uint64_t packets_delivered = 0;

  // Multi-rack topology results; num_racks stays 0 for legacy single-switch
  // runs (the sweep JSON emits the block only when it is set).
  size_t num_racks = 0;
  std::vector<uint64_t> rack_decisions;  // per-rack tasks_assigned
  uint64_t home_submissions = 0;         // routed to the client's home ToR
  uint64_t cross_rack_submissions = 0;   // forwarded to a sibling rack
  double cross_rack_fraction = 0.0;      // cross / (home + cross)
  uint64_t summary_packets = 0;          // queue-depth summaries broadcast
  uint64_t cross_rack_packets = 0;       // all fabric packets that crossed racks

  RecoveryStats recovery{};

  // Filled at harvest by the DAG job source dag::RunDagExperiment passes to
  // RunExperiment (src/dag/experiment.h); inert for flat job streams.
  DagRunStats dag{};
};

class Client;
class Testbed;

// Where an experiment's work comes from (DESIGN.md §7). RunExperiment builds
// the testbed, the deployment and the clients, then hands the clients to the
// source, which schedules its arrivals on them. The flat path's source
// replays a JobStream through a Feeder; the DAG path's drives one
// dag::FrontierDriver per client. Kept abstract so cluster never depends on
// the layers above the client.
class JobSource {
 public:
  virtual ~JobSource() = default;

  // Arrival time of the last job (0 when there is none); with horizon == 0
  // the run's horizon is this + 50 ms.
  virtual TimeNs last_arrival() const = 0;
  // Every task the source will offer, and their summed service time.
  virtual size_t offered_tasks() const = 0;
  virtual TimeNs offered_work() const = 0;

  // Hooks the built clients and schedules the arrivals. Called once, after
  // the fault plan is armed and before the run. The testbed and clients
  // belong to RunExperiment and are destroyed when it returns: a source must
  // not touch them after its Harvest.
  virtual void Start(Testbed* testbed, const std::vector<Client*>& clients) = 0;
  // True once the source will submit nothing more (drain poll; the poll
  // also waits for the clients' outstanding tasks).
  virtual bool done() const = 0;
  // Adds the source's own results after the run, before the metrics move
  // into the result.
  virtual void Harvest(const MetricsHub& /*metrics*/, ExperimentResult* /*result*/) const {}
};

// The per-rack shape an experiment actually runs: the configured topology's
// racks when cluster.enabled(), otherwise one legacy rack built from
// num_workers/executors_per_worker. Deployments and benches share this so
// wiring order (and thus NodeId assignment) has a single source of truth.
std::vector<topology::RackSpec> EffectiveRackSpecs(const ExperimentConfig& config);

// Runs the config's own workload (spec or explicit stream).
ExperimentResult RunExperiment(const ExperimentConfig& config);

// Runs `source` on the cluster `config` describes; the config's own
// workload/stream are not replayed. The warmup/horizon check uses the
// source's last arrival.
ExperimentResult RunExperiment(const ExperimentConfig& config, JobSource& source);

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_EXPERIMENT_H_
