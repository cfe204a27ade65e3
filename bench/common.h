// Shared helpers for the figure-reproduction benches.
//
// Every bench binary reproduces one table or figure from the paper: it
// builds a sweep::SweepSpec for the figure's points (paper scale: 10 workers
// x 16 executors unless the experiment says otherwise), runs it through
// SweepRunner — which owns the standard flags (--parallelism, --json,
// --csv-dir, --horizon, --progress) — and prints the series as an aligned
// text table from the ordered results.
//
// Environment:
//   DRACONIS_BENCH_QUICK=1   shrink run horizons / sweep points (dev mode)

#ifndef DRACONIS_BENCH_COMMON_H_
#define DRACONIS_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "cluster/deployment.h"
#include "cluster/experiment.h"
#include "common/flags.h"
#include "core/rank_function.h"
#include "fault/plan.h"
#include "sim/event_queue.h"
#include "sweep/report.h"
#include "sweep/sweep.h"
#include "trace/export.h"
#include "workload/workload.h"

namespace draconis::bench {

inline bool Quick() {
  const char* env = std::getenv("DRACONIS_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

// Measurement horizon per run.
inline TimeNs RunHorizon() { return Quick() ? FromMillis(15) : FromMillis(40); }
inline TimeNs RunWarmup() { return FromMillis(5); }

// The paper's testbed shape.
inline constexpr size_t kWorkers = 10;
inline constexpr size_t kExecutorsPerWorker = 16;
inline constexpr size_t kTotalExecutors = kWorkers * kExecutorsPerWorker;

// Tasks/s that produce `util` cluster utilization for a mean service time.
inline double UtilToTps(double util, TimeNs mean_service) {
  return util * static_cast<double>(kTotalExecutors) / ToSeconds(mean_service);
}

// A paper-scale cluster running an open-loop synthetic workload. The paper's
// clients "submit jobs with configurable sizes"; jobs default to 10-task
// batches submitted as trains of single-task packets (see EXPERIMENTS.md) —
// the burstiness behind R2P2's node-level blocking and drops.
// `horizon` = 0 uses RunHorizon(); benches pass SweepRunner::horizon() so
// --horizon reaches every point.
inline cluster::ExperimentConfig SyntheticConfig(cluster::SchedulerKind kind, double tps,
                                                 const workload::ServiceTime& service,
                                                 uint64_t seed = 42,
                                                 size_t tasks_per_job = 10,
                                                 TimeNs horizon = 0) {
  cluster::ExperimentConfig config;
  config.scheduler = kind;
  config.num_workers = kWorkers;
  config.executors_per_worker = kExecutorsPerWorker;
  config.num_clients = 4;
  config.warmup = RunWarmup();
  config.horizon = horizon > 0 ? horizon : RunHorizon();
  config.max_tasks_per_packet = 1;
  // The paper sets client timeouts to 2x the execution time and notes that
  // typical clients use 5-10x. Our simulated baselines' tails sit closer to
  // the timeout than the authors' testbed did, and at 2-3x R2P2-3 collapses
  // into a resubmission spiral the paper's R2P2-3 did not exhibit — so the
  // suite runs at the bottom of the typical band.
  config.timeout_multiplier = 5.0;
  config.seed = seed;

  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = tps;
  config.workload.duration = config.horizon;
  config.workload.tasks_per_job = tasks_per_job;
  config.workload.service = service;
  config.workload.seed = seed;
  return config;
}

// p99 of a histogram, or "(none)" when nothing completed in the window (a
// saturated scheduler).
inline std::string P99OrNone(const stats::Histogram& h) {
  return h.count() == 0 ? "(none)" : FormatDuration(h.Percentile(0.99));
}

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("==========================================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("(simulated reproduction; see EXPERIMENTS.md for paper-vs-measured notes)\n");
  std::printf("==========================================================================\n");
}

// Prints a CDF as a fixed set of quantiles, one line per system.
inline void PrintQuantileRow(const char* name, const stats::Histogram& h) {
  std::printf("%-24s %10s %10s %10s %10s %10s %10s\n", name,
              FormatDuration(h.Percentile(0.50)).c_str(),
              FormatDuration(h.Percentile(0.66)).c_str(),
              FormatDuration(h.Percentile(0.90)).c_str(),
              FormatDuration(h.Percentile(0.95)).c_str(),
              FormatDuration(h.Percentile(0.99)).c_str(),
              FormatDuration(h.Percentile(0.999)).c_str());
}

inline void PrintQuantileHeader(const char* label) {
  std::printf("%-24s %10s %10s %10s %10s %10s %10s\n", label, "p50", "p66", "p90", "p95",
              "p99", "p99.9");
}

// Valid values for a --scheduler flag (AddChoice); "all" disables filtering.
// The kind names come from the DeploymentRegistry, so a newly registered
// scheduler is selectable in every bench without touching this file.
inline std::vector<std::string> SchedulerChoices() {
  std::vector<std::string> choices = {"all"};
  for (const std::string& flag : cluster::DeploymentRegistry::Get().FlagChoices()) {
    choices.push_back(flag);
  }
  return choices;
}

// True when a --scheduler choice selects systems of this kind.
inline bool KeepScheduler(const std::string& choice, cluster::SchedulerKind kind) {
  if (choice == "all") {
    return true;
  }
  cluster::SchedulerKind want;
  return cluster::SchedulerKindFromName(choice, &want) && want == kind;
}

// Valid values for the --switch-policy flag (AddChoice): the switch
// queueing disciplines of docs/pifo.md, "fifo" first (the default).
inline std::vector<std::string> SwitchPolicyChoices() {
  std::vector<std::string> choices;
  for (core::SwitchPolicy policy : core::AllSwitchPolicies()) {
    choices.push_back(core::SwitchPolicyName(policy));
  }
  return choices;
}

// Valid values for the --sim-queue flag (AddChoice): the event-queue
// backends of src/sim/event_queue.h, the default backend first.
inline std::vector<std::string> SimQueueChoices() {
  std::vector<std::string> choices;
  for (sim::QueueBackend backend : sim::AllQueueBackends()) {
    choices.push_back(sim::QueueBackendName(backend));
  }
  return choices;
}

// Drives one bench binary: owns the flag parser with the standard sweep
// flags, executes the spec via sweep::RunSweep, and writes the --json /
// --csv-dir reports. Bench-specific flags register through parser() before
// ParseFlagsOrExit.
class SweepRunner {
 public:
  // Benches whose run window is not a plain horizon (phased workloads, the
  // static capacity table) pass kNoHorizonFlag so --horizon is not offered.
  static constexpr TimeNs kNoHorizonFlag = -1;

  // `default_horizon` = 0 uses RunHorizon(); benches whose paper setup runs a
  // different window (e.g. the no-op throughput test) pass their own.
  SweepRunner(const std::string& figure, const std::string& description,
              TimeNs default_horizon = 0)
      : figure_(figure),
        description_(description),
        parser_(figure + " — " + description) {
    if (default_horizon > 0) {
      horizon_ = default_horizon;
    }
    parser_.AddInt64("parallelism", &parallelism_,
                     "sweep worker threads (0 = all hardware threads, 1 = serial)");
    parser_.AddString("json", &json_path_, "write the sweep report as JSON to this path");
    parser_.AddString("csv-dir", &csv_dir_,
                      "dump per-point latency CDFs as CSVs into this directory");
    parser_.AddBool("progress", &progress_, "print per-point progress to stderr");
    if (default_horizon != kNoHorizonFlag) {
      parser_.AddDuration("horizon", &horizon_, "measurement horizon per experiment point");
    }
    parser_.AddBool("trace", &trace_,
                    "record sampled task-lifecycle traces per point (docs/observability.md)");
    parser_.AddInt64("trace-sample", &trace_sample_,
                     "trace 1-in-N tasks by deterministic id hash (1 = every task)");
    parser_.AddString("trace-dir", &trace_dir_,
                      "directory for <bench>_<point>_{trace,attribution}.json outputs");
    parser_.AddString("fault-plan", &fault_plan_path_,
                      "apply this JSON fault plan to every sweep point "
                      "(docs/fault_injection.md)");
    parser_.AddChoice("switch-policy", &switch_policy_, SwitchPolicyChoices(),
                      "switch queueing discipline for every point (docs/pifo.md); "
                      "non-fifo values need a PIFO-capable kind — combine with "
                      "--scheduler=draconis");
    parser_.AddChoice("sim-queue", &sim_queue_, SimQueueChoices(),
                      "event-queue backend for every point's simulator "
                      "(docs/simulation.md); both produce bit-identical runs");
    std::string workload_doc = "arrival process override for every spec-driven point (";
    for (size_t i = 0; i < workload::ArrivalKindNames().size(); ++i) {
      workload_doc += (i > 0 ? ", " : "") + workload::ArrivalKindNames()[i];
    }
    workload_doc += "; docs/workloads.md)";
    parser_.AddString("workload", &workload_override_, workload_doc);
    std::string service_doc =
        "service-time model override for every spec-driven point, e.g. ";
    for (size_t i = 0; i < workload::ServiceTime::NameTemplates().size(); ++i) {
      service_doc += (i > 0 ? " | " : "") + workload::ServiceTime::NameTemplates()[i];
    }
    parser_.AddString("service-time", &service_time_override_, service_doc);
    parser_.AddDouble("heavy-tail-prob", &heavy_tail_prob_,
                      "wrap every point's service-time model: inflate this fraction of "
                      "samples (0 disables; docs/workloads.md)");
    parser_.AddDouble("heavy-tail-mult", &heavy_tail_mult_,
                      "multiplier applied to the inflated heavy-tail samples");
  }

  flags::Parser& parser() { return parser_; }
  TimeNs horizon() const { return horizon_; }
  bool has_fault_plan() const { return !fault_plan_path_.empty(); }

  // Loads the --fault-plan file (exits on parse errors) and disowns it, so
  // Run() will not auto-apply it to every point — for benches that assign
  // the plan to their own subset of points (fig14's failover series keeps a
  // no-fault baseline series next to it). Returns false when the flag was
  // not passed.
  bool TakeFaultPlan(fault::FaultPlan* out) {
    if (fault_plan_path_.empty()) {
      return false;
    }
    LoadFaultPlan(out);
    fault_plan_path_.clear();
    return true;
  }

  void ParseFlagsOrExit(int argc, const char* const* argv) {
    std::string error;
    if (!parser_.Parse(argc, argv, &error)) {
      std::fprintf(stderr, "%s\n\n%s", error.c_str(), parser_.Usage().c_str());
      std::exit(2);
    }
    if (parser_.help_requested()) {
      std::fputs(parser_.Usage().c_str(), stdout);
      std::exit(0);
    }
  }

  // Prints the figure header, runs the sweep, and writes the --json /
  // --csv-dir outputs. `annotate` (optional) fills per-point scalars before
  // the report is rendered. Results come back in point order.
  std::vector<sweep::SweepPointResult> Run(
      const sweep::SweepSpec& spec,
      const std::function<void(std::vector<sweep::SweepPointResult>&)>& annotate = nullptr) {
    PrintHeader(figure_.c_str(), description_.c_str());
    const sweep::SweepSpec* active = &spec;
    sweep::SweepSpec modified;
    if (trace_ || !fault_plan_path_.empty() || switch_policy_ != "fifo" ||
        sim_queue_ != sim::QueueBackendName(sim::kDefaultQueueBackend) ||
        !workload_override_.empty() || !service_time_override_.empty() ||
        heavy_tail_prob_ != 0.0) {
      modified = spec;
      ApplySweepFlags(&modified);
      active = &modified;
    }
    sweep::SweepOptions options;
    options.parallelism = parallelism_ < 0 ? 1 : static_cast<size_t>(parallelism_);
    if (progress_) {
      options.on_progress = [](size_t completed, size_t total,
                               const sweep::SweepPointResult& done) {
        std::fprintf(stderr, "[%zu/%zu] %s\n", completed, total, done.label.c_str());
      };
    }
    std::vector<sweep::SweepPointResult> results = sweep::RunSweep(*active, options);
    if (annotate) {
      annotate(results);
    }
    if (trace_) {
      for (const sweep::SweepPointResult& r : results) {
        if (r.result.trace == nullptr) {
          continue;
        }
        const std::string dir = trace_dir_.empty() ? std::string(".") : trace_dir_;
        const std::string base =
            dir + "/" + spec.name + "_" + trace::SanitizeForFilename(r.label);
        const std::string tag = spec.name + "/" + r.label;
        trace::WriteChromeTraceFile(base + "_trace.json", *r.result.trace, tag);
        const trace::AttributionReport attribution = trace::BuildAttribution(*r.result.trace);
        trace::WriteAttributionFile(base + "_attribution.json", attribution, *r.result.trace,
                                    tag);
        std::fprintf(stderr, "trace: %s_{trace,attribution}.json\n", base.c_str());
      }
    }
    sweep::ReportOptions report;
    report.parallelism = sweep::EffectiveParallelism(options.parallelism, spec.points.size());
    report.quick = Quick();
    // Report against *active, not spec: per-point flag overrides
    // (--sim-queue, --switch-policy, --fault-plan) must be visible in the
    // recorded configs.
    if (!json_path_.empty()) {
      sweep::WriteJsonFile(json_path_, *active, results, report);
    }
    if (!csv_dir_.empty()) {
      sweep::WriteCsvDir(csv_dir_, *active, results);
    }
    return results;
  }

 private:
  // Loads the --fault-plan file; a plan that fails to parse exits 2.
  void LoadFaultPlan(fault::FaultPlan* out) const {
    std::string error;
    if (!fault::FaultPlan::FromJsonFile(fault_plan_path_, out, &error)) {
      std::fprintf(stderr, "--fault-plan: %s\n", error.c_str());
      std::exit(2);
    }
  }

  // Applies every sweep-wide flag that was passed to each point of `spec`,
  // then validates each point once; a bad flag value or a point the flags
  // make invalid exits 2, naming the flags.
  void ApplySweepFlags(sweep::SweepSpec* spec) const {
    std::string applied;  // the flags that change points, for error messages
    auto note = [&applied](const char* flag) {
      applied += (applied.empty() ? "" : ", ") + std::string(flag);
    };
    // --workload / --service-time / --heavy-tail-*: reshape every point that
    // runs on a declarative WorkloadSpec (docs/workloads.md); points with
    // hand-crafted streams are left alone.
    workload::ArrivalKind arrival = workload::ArrivalKind::kNone;
    if (!workload_override_.empty()) {
      if (!workload::ArrivalKindFromName(workload_override_, &arrival)) {
        std::fprintf(stderr, "--workload: unknown arrival process '%s'\n",
                     workload_override_.c_str());
        std::exit(2);
      }
      note("--workload");
    }
    workload::ServiceTime service = workload::ServiceTime::Fixed(FromMicros(500));
    if (!service_time_override_.empty()) {
      std::string error;
      if (!workload::ServiceTime::FromName(service_time_override_, &service, &error)) {
        std::fprintf(stderr, "--service-time: %s\n", error.c_str());
        std::exit(2);
      }
      note("--service-time");
    }
    if (heavy_tail_prob_ != 0.0) {
      note("--heavy-tail-prob");
    }
    const bool workload_overrides = !applied.empty();
    if (workload_overrides &&
        !(heavy_tail_prob_ >= 0.0 && heavy_tail_prob_ <= 1.0 && heavy_tail_mult_ > 0.0)) {
      std::fprintf(stderr, "--heavy-tail-prob must be in [0, 1] and --heavy-tail-mult > 0\n");
      std::exit(2);
    }
    // --sim-queue: the same event-queue backend in every point's simulator.
    // Results are bit-identical across backends (the (time, seq) contract);
    // the flag exists for cross-checking exactly that and for timing
    // comparisons.
    sim::QueueBackend backend = sim::kDefaultQueueBackend;
    const bool set_backend = sim_queue_ != sim::QueueBackendName(backend);
    if (set_backend) {
      sim::QueueBackendFromName(sim_queue_, &backend);  // choices pre-validated
      note("--sim-queue");
    }
    // --switch-policy: the same switch queueing discipline on every point.
    // Points whose scheduler kind cannot host a PIFO fail validation, so a
    // mixed-kind sweep needs a --scheduler filter first.
    core::SwitchPolicy switch_policy = core::SwitchPolicy::kFifo;
    if (switch_policy_ != "fifo") {
      core::SwitchPolicyFromName(switch_policy_, &switch_policy);  // choices pre-validated
      note("--switch-policy");
    }
    // --fault-plan: the same deterministic fault timeline on every point.
    fault::FaultPlan plan;
    if (!fault_plan_path_.empty()) {
      LoadFaultPlan(&plan);
      note("--fault-plan");
    }
    // --trace: run the same points with the recorder enabled. Sampling is a
    // pure hash of each task id, so traced results are bit-identical to
    // untraced ones (tests/determinism_test.cc).
    if (trace_) {
      note("--trace");
    }
    for (sweep::SweepPoint& point : spec->points) {
      cluster::ExperimentConfig& config = point.config;
      if (workload_overrides && config.workload.enabled()) {
        if (arrival != workload::ArrivalKind::kNone) {
          config.workload.arrival = arrival;
        }
        if (!service_time_override_.empty()) {
          config.workload.service = service;
        }
        if (heavy_tail_prob_ > 0.0) {
          config.workload.service = workload::ServiceTime::HeavyTail(
              config.workload.service, heavy_tail_prob_, heavy_tail_mult_);
        }
      }
      if (set_backend) {
        config.sim_queue = backend;
      }
      if (switch_policy != core::SwitchPolicy::kFifo) {
        config.switch_policy = switch_policy;
      }
      if (trace_) {
        config.trace.enabled = true;
        config.trace.sample_period = trace_sample_ <= 0 ? 1 : static_cast<uint64_t>(trace_sample_);
      }
      if (!fault_plan_path_.empty()) {
        config.fault_plan = plan;
      }
      const std::string invalid = config.Validate();
      if (!invalid.empty()) {
        std::fprintf(stderr, "%s: point %s: %s\n", applied.c_str(), point.label.c_str(),
                     invalid.c_str());
        std::exit(2);
      }
    }
  }

  std::string figure_;
  std::string description_;
  flags::Parser parser_;
  int64_t parallelism_ = 0;
  std::string json_path_;
  std::string csv_dir_;
  bool progress_ = true;
  bool trace_ = false;
  int64_t trace_sample_ = 64;
  std::string trace_dir_ = ".";
  std::string fault_plan_path_;
  std::string workload_override_;
  std::string service_time_override_;
  double heavy_tail_prob_ = 0.0;
  double heavy_tail_mult_ = 10.0;
  std::string switch_policy_ = "fifo";
  std::string sim_queue_ = sim::QueueBackendName(sim::kDefaultQueueBackend);
  TimeNs horizon_ = RunHorizon();
};

}  // namespace draconis::bench

#endif  // DRACONIS_BENCH_COMMON_H_
