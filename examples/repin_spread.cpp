// Re-pin evidence: how far the pinned determinism goldens move across seeds.
//
// Runs the fig05a mini configuration (tests/determinism_test.cc) for every
// scheduler kind of the pinned table, and the four pinned DAG runs, over 20
// fixed seeds. For each metric it prints the value at the pinned seed (42)
// and the min..max over all seeds, as JSON on stdout. A deliberate re-pin is
// justified when every new pinned value falls inside the old build's
// min..max: the change moved individual draws, not the distributions.
//
//   ./build/examples/repin_spread > spread.json
//
// The tool takes no flags so that the same source runs unchanged on two
// builds (before and after a change) and the outputs can be diffed.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/experiment.h"
#include "dag/experiment.h"
#include "workload/workload.h"

namespace {

using namespace draconis;

constexpr uint64_t kPinnedSeed = 42;

std::vector<uint64_t> Seeds() {
  std::vector<uint64_t> seeds = {kPinnedSeed};
  for (uint64_t s = 1; s < 20; ++s) {
    seeds.push_back(s);
  }
  return seeds;
}

// The fig05a mini point of tests/determinism_test.cc, at `seed`.
cluster::ExperimentConfig Fig05aMini(cluster::SchedulerKind kind, uint64_t seed) {
  cluster::ExperimentConfig config;
  config.scheduler = kind;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(2);
  config.horizon = FromMillis(15);
  config.max_tasks_per_packet = 1;
  config.jbsq_k = 3;
  config.timeout_multiplier = 5.0;
  config.seed = seed;
  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 100e3 * 16.0 / 160.0;
  spec.duration = config.horizon;
  spec.tasks_per_job = 10;
  spec.service = workload::ServiceTime::Fixed(FromMicros(500));
  spec.seed = seed;
  config.stream = spec.Generate();
  return config;
}

// One pinned DAG run of tests/determinism_test.cc, with the fabric seed
// varied (the DAG stream keeps its pinned seed).
cluster::ExperimentResult DagRun(cluster::SchedulerKind kind, bool hedged, uint64_t seed) {
  dag::DagWorkloadSpec workload;
  workload.shape = dag::DagShape::kFanOutFanIn;
  workload.depth = 3;
  workload.width = 4;
  workload.service = workload::ServiceTime::Pareto(FromMicros(200), 1.3);
  workload.jobs_per_second = 3000.0;
  workload.duration = FromMillis(20);
  workload.seed = 11;
  cluster::ExperimentConfig config;
  config.scheduler = kind;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(1);
  config.horizon = FromMillis(30);
  config.run_to_completion = true;
  config.timeout_multiplier = 10.0;
  config.jbsq_k = 3;
  config.seed = seed;
  dag::HedgePolicy hedge;
  hedge.enabled = hedged;
  hedge.min_samples = 16;
  hedge.initial_delay = FromMillis(1);
  return dag::RunDagExperiment(config, workload, hedge);
}

using Metric = std::pair<const char*, std::function<double(const cluster::ExperimentResult&)>>;

// Prints {"metric": {"pin": v, "min": lo, "max": hi}, ...} over the seeds.
void PrintSpread(const std::vector<Metric>& metrics,
                 const std::function<cluster::ExperimentResult(uint64_t)>& run) {
  const std::vector<uint64_t> seeds = Seeds();
  std::vector<std::vector<double>> values(metrics.size());
  for (uint64_t seed : seeds) {
    const cluster::ExperimentResult result = run(seed);
    for (size_t m = 0; m < metrics.size(); ++m) {
      values[m].push_back(metrics[m].second(result));
    }
  }
  std::printf("{");
  for (size_t m = 0; m < metrics.size(); ++m) {
    const auto [lo, hi] = std::minmax_element(values[m].begin(), values[m].end());
    std::printf("%s\"%s\": {\"pin\": %.0f, \"min\": %.0f, \"max\": %.0f}", m == 0 ? "" : ", ",
                metrics[m].first, values[m][0], *lo, *hi);
  }
  std::printf("}");
}

}  // namespace

int main() {
  const std::vector<Metric> flat = {
      {"completions",
       [](const cluster::ExperimentResult& r) {
         return static_cast<double>(r.metrics->tasks_completed());
       }},
      {"sched_p50",
       [](const cluster::ExperimentResult& r) {
         return static_cast<double>(r.metrics->sched_delay().Percentile(0.50));
       }},
      {"sched_p99",
       [](const cluster::ExperimentResult& r) {
         return static_cast<double>(r.metrics->sched_delay().Percentile(0.99));
       }},
      {"e2e_p50",
       [](const cluster::ExperimentResult& r) {
         return static_cast<double>(r.metrics->e2e_delay().Percentile(0.50));
       }},
      {"e2e_p99",
       [](const cluster::ExperimentResult& r) {
         return static_cast<double>(r.metrics->e2e_delay().Percentile(0.99));
       }},
  };
  const std::vector<Metric> dag = {
      {"jobs_completed",
       [](const cluster::ExperimentResult& r) {
         return static_cast<double>(r.dag.jobs_completed);
       }},
      {"makespan_p50",
       [](const cluster::ExperimentResult& r) {
         return static_cast<double>(r.dag.makespan.Percentile(0.50));
       }},
      {"makespan_p99",
       [](const cluster::ExperimentResult& r) {
         return static_cast<double>(r.dag.makespan.Percentile(0.99));
       }},
      {"hedges_launched",
       [](const cluster::ExperimentResult& r) {
         return static_cast<double>(r.dag.hedges_launched);
       }},
      {"hedge_wins",
       [](const cluster::ExperimentResult& r) { return static_cast<double>(r.dag.hedge_wins); }},
      {"drain_time",
       [](const cluster::ExperimentResult& r) { return static_cast<double>(r.drain_time); }},
  };
  const cluster::SchedulerKind kinds[] = {
      cluster::SchedulerKind::kDraconis,  cluster::SchedulerKind::kDraconisDpdkServer,
      cluster::SchedulerKind::kDraconisSocketServer, cluster::SchedulerKind::kR2P2,
      cluster::SchedulerKind::kRackSched, cluster::SchedulerKind::kSparrow,
  };

  std::printf("{\n  \"pinned_seed\": %llu,\n  \"seeds\": %zu,\n  \"fig05a_mini\": {",
              static_cast<unsigned long long>(kPinnedSeed), Seeds().size());
  bool first = true;
  for (cluster::SchedulerKind kind : kinds) {
    std::printf("%s\n    \"%s\": ", first ? "" : ",", cluster::SchedulerKindName(kind));
    first = false;
    PrintSpread(flat, [kind](uint64_t seed) { return RunExperiment(Fig05aMini(kind, seed)); });
  }
  std::printf("\n  },\n  \"dag\": {");
  first = true;
  for (cluster::SchedulerKind kind :
       {cluster::SchedulerKind::kDraconis, cluster::SchedulerKind::kRackSched}) {
    for (bool hedged : {false, true}) {
      std::printf("%s\n    \"%s%s\": ", first ? "" : ",", cluster::SchedulerKindName(kind),
                  hedged ? " +hedge" : "");
      first = false;
      PrintSpread(dag, [kind, hedged](uint64_t seed) {
        return DagRun(kind, hedged, seed);
      });
    }
  }
  std::printf("\n  }\n}\n");
  return 0;
}
