// cluster_sim: a configurable command-line driver for the simulated testbed.
//
// Run any scheduler/policy/workload combination and get a one-page report:
//
//   ./build/examples/cluster_sim --scheduler=draconis --policy=fcfs
//       --workers=10 --executors-per-worker=16 --task-us=500
//       --utilization=0.8 --duration-ms=40       (one command line)
//
//   ./build/examples/cluster_sim --scheduler=r2p2 --jbsq-k=1 --utilization=0.95
//
//   ./build/examples/cluster_sim --scheduler=racksched-ps --utilization=0.9
//
//   ./build/examples/cluster_sim --trace=mytrace.csv --scheduler=racksched
//
// Trace files use the CSV format documented in workload/trace_io.h.

#include <cstdio>
#include <string>

#include "cluster/deployment.h"
#include "cluster/experiment.h"
#include "common/flags.h"
#include "workload/trace_io.h"
#include "workload/workload.h"

using namespace draconis;
using namespace draconis::cluster;

namespace {

// Registry-driven: any scheduler registered in the DeploymentRegistry is
// accepted by canonical or flag spelling, with no per-example switch to keep
// in sync (see examples/list_schedulers.cpp --flags-only for the list).
bool ParseScheduler(const std::string& name, SchedulerKind* kind) {
  const DeploymentInfo* info = DeploymentRegistry::Get().FindByName(name);
  if (info == nullptr) return false;
  *kind = info->kind;
  return true;
}

bool ParsePolicy(const std::string& name, PolicyKind* kind) {
  if (name == "fcfs") *kind = PolicyKind::kFcfs;
  else if (name == "priority") *kind = PolicyKind::kPriority;
  else if (name == "locality") *kind = PolicyKind::kLocality;
  else if (name == "resource") *kind = PolicyKind::kResource;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scheduler_name = "draconis";
  std::string policy_name = "fcfs";
  std::string trace_path;
  int64_t workers = 10;
  int64_t executors_per_worker = 16;
  int64_t racks = 3;
  int64_t jbsq_k = 3;
  int64_t priority_levels = 4;
  double task_us = 500.0;
  double utilization = 0.5;
  double duration_ms = 40.0;
  double warmup_ms = 5.0;
  int64_t tasks_per_job = 1;
  int64_t seed = 42;
  bool locality_access = false;

  flags::Parser parser(
      "cluster_sim — run one scheduling experiment on the simulated testbed");
  parser.AddString("scheduler", &scheduler_name,
                   "any registered kind (list_schedulers --flags-only), e.g. draconis | "
                   "racksched | racksched-ps | malcolm | racksched-edf");
  parser.AddString("policy", &policy_name,
                   "Draconis policy: fcfs | priority | locality | resource");
  parser.AddString("trace", &trace_path,
                   "CSV trace to replay instead of the synthetic workload");
  parser.AddInt64("workers", &workers, "worker machines");
  parser.AddInt64("executors-per-worker", &executors_per_worker, "cores per worker");
  parser.AddInt64("racks", &racks, "racks (locality policy)");
  parser.AddInt64("jbsq-k", &jbsq_k, "R2P2 bounded queue depth");
  parser.AddInt64("priority-levels", &priority_levels, "class-of-service levels");
  parser.AddDouble("task-us", &task_us, "fixed task service time (microseconds)");
  parser.AddDouble("utilization", &utilization, "offered load as a fraction of capacity");
  parser.AddDouble("duration-ms", &duration_ms, "submission window (milliseconds)");
  parser.AddDouble("warmup-ms", &warmup_ms, "measurement warmup (milliseconds)");
  parser.AddInt64("tasks-per-job", &tasks_per_job, "batch size of each submitted job");
  parser.AddInt64("seed", &seed, "workload seed");
  parser.AddBool("locality-access", &locality_access,
                 "charge 0/20/100 us data-access penalties by placement");

  std::string error;
  if (!parser.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "error: %s\n\n%s", error.c_str(), parser.Usage().c_str());
    return 2;
  }
  if (parser.help_requested()) {
    std::printf("%s", parser.Usage().c_str());
    return 0;
  }

  ExperimentConfig config;
  if (!ParseScheduler(scheduler_name, &config.scheduler)) {
    std::fprintf(stderr, "unknown --scheduler '%s'\n", scheduler_name.c_str());
    return 2;
  }
  if (!ParsePolicy(policy_name, &config.policy)) {
    std::fprintf(stderr, "unknown --policy '%s'\n", policy_name.c_str());
    return 2;
  }
  config.num_workers = static_cast<size_t>(workers);
  config.executors_per_worker = static_cast<size_t>(executors_per_worker);
  config.num_racks = static_cast<size_t>(racks);
  config.jbsq_k = static_cast<uint32_t>(jbsq_k);
  config.priority_levels = static_cast<size_t>(priority_levels);
  config.locality_access_model = locality_access;
  config.max_tasks_per_packet = 1;
  config.warmup = FromMillis(warmup_ms);
  config.horizon = FromMillis(duration_ms);
  config.seed = static_cast<uint64_t>(seed);
  config.timeout_multiplier = 5.0;

  const size_t total_executors = config.num_workers * config.executors_per_worker;
  if (!trace_path.empty()) {
    if (!workload::LoadJobStream(trace_path, &config.stream, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    if (!config.stream.empty()) {
      config.horizon = config.stream.back().at + FromMillis(10);
    }
  } else {
    // Declarative workload spec (docs/workloads.md): RunExperiment generates
    // the stream, and the same fields echo into sweep JSON elsewhere.
    config.workload.arrival = workload::ArrivalKind::kOpenLoop;
    config.workload.tasks_per_second =
        utilization * static_cast<double>(total_executors) / (task_us * 1e-6);
    config.workload.duration = config.horizon;
    config.workload.tasks_per_job = static_cast<size_t>(tasks_per_job);
    config.workload.service = workload::ServiceTime::Fixed(FromMicros(task_us));
    config.workload.seed = config.seed;
    if (config.policy == PolicyKind::kLocality) {
      config.workload.taggers.push_back(
          workload::TaggerStage::Locality(static_cast<uint32_t>(workers), config.seed));
    } else if (config.policy == PolicyKind::kPriority) {
      config.workload.taggers.push_back(
          workload::TaggerStage::Priority(workload::PaperPriorityMix(), config.seed));
    }
  }

  std::printf("scheduler=%s policy=%s workers=%zu executors=%zu workload=%s\n",
              SchedulerKindName(config.scheduler), policy_name.c_str(), config.num_workers,
              total_executors,
              trace_path.empty() ? config.workload.label().c_str() : trace_path.c_str());

  ExperimentResult result = RunExperiment(config);

  const auto& sched = result.metrics->sched_delay();
  std::printf("\noffered load        %5.1f%% of cluster capacity (%.0f tasks/s)\n",
              result.offered_utilization * 100, result.offered_tasks_per_second);
  std::printf("completed          %llu of %llu submitted in-window tasks\n",
              static_cast<unsigned long long>(result.metrics->tasks_completed()),
              static_cast<unsigned long long>(result.metrics->tasks_submitted()));
  std::printf("sched delay        p50=%s  p90=%s  p99=%s  max=%s\n",
              FormatDuration(sched.Percentile(0.5)).c_str(),
              FormatDuration(sched.Percentile(0.9)).c_str(),
              FormatDuration(sched.Percentile(0.99)).c_str(),
              FormatDuration(sched.max()).c_str());
  std::printf("end-to-end         p50=%s  p99=%s\n",
              FormatDuration(result.metrics->e2e_delay().Percentile(0.5)).c_str(),
              FormatDuration(result.metrics->e2e_delay().Percentile(0.99)).c_str());
  std::printf("executor busy      %5.1f%%\n", result.executor_busy_fraction * 100);
  std::printf("recirculation      %5.2f%% of switch passes; %llu packets dropped\n",
              result.switch_counters.RecirculationShare() * 100,
              static_cast<unsigned long long>(result.recirc_drops));
  std::printf("client recoveries  %llu timeouts, %llu queue-full retries\n",
              static_cast<unsigned long long>(result.metrics->timeout_resubmissions()),
              static_cast<unsigned long long>(result.metrics->queue_full_retries()));
  return 0;
}
