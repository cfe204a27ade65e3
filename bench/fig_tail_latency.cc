// Tail-latency comparison across every registered scheduler kind under a
// Pareto (alpha = 1.3) service-time distribution — the heavy-tailed regime
// the paper's microsecond-scale motivation is about, where a few elephant
// tasks dominate queueing and the scheduling discipline decides who waits
// behind them.
//
// The sweep is registry-driven: a kind registered in the DeploymentRegistry
// shows up here (and in BENCH_tail.json) automatically. The stream carries
// deadline tags (slack 3x, 200 us jitter); only deadline-aware kinds such as
// RackSched-EDF read them, so every system sees byte-identical arrivals.
//
// Expected shape: Draconis lowest; Malcolm (latency-distribution-aware
// steering) beats RackSched's power-of-two at the p99.9 because it avoids
// nodes whose measured sojourn distribution has gone bad; RackSched-EDF
// reorders within a node, trading mean for deadline adherence; RackSched-PS
// shares each node's cores, so its scheduling delay is the dispatch overhead.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"

using namespace draconis;
using namespace draconis::bench;
using namespace draconis::cluster;

int main(int argc, char** argv) {
  SweepRunner runner("Tail latency",
                     "p99/p99.9 end-to-end latency under Pareto service times, all kinds");
  std::string scheduler = "all";
  runner.parser().AddChoice("scheduler", &scheduler, SchedulerChoices(),
                            "restrict the sweep to one scheduler kind");
  double alpha = 1.3;
  runner.parser().AddDouble("alpha", &alpha, "Pareto tail index (smaller = heavier tail)");
  runner.ParseFlagsOrExit(argc, argv);

  const workload::ServiceTime service =
      workload::ServiceTime::Pareto(FromMicros(250), alpha);
  // Heavy tails need real queueing before the discipline matters: at low
  // load every executor is idle and all kinds degenerate to "place anywhere".
  std::vector<double> utilizations = {0.5, 0.7, 0.9};
  if (Quick()) {
    utilizations = {0.9};
  }

  sweep::SweepSpec spec;
  spec.name = "fig_tail_latency";
  spec.title = "p99/p99.9 end-to-end latency under Pareto service times, all kinds";
  spec.axis = {"offered load", "fraction of capacity"};
  std::vector<const DeploymentInfo*> systems;
  for (const DeploymentInfo& info : DeploymentRegistry::Get().all()) {
    if (!KeepScheduler(scheduler, info.kind)) {
      continue;
    }
    systems.push_back(&info);
    for (double util : utilizations) {
      sweep::SweepPoint point;
      point.series = info.canonical_name;
      point.x = util;
      char label[64];
      std::snprintf(label, sizeof(label), "%s@%.0f%%", info.flag_name,
                    100.0 * util);
      point.label = label;
      point.config = SyntheticConfig(info.kind, UtilToTps(util, service.Mean()), service,
                                     42, 10, runner.horizon());
      point.config.jbsq_k = 3;
      // Heavy-tailed services make resubmission storms cheap to trigger;
      // stay at the top of the paper's "typical 5-10x" client-timeout band.
      point.config.timeout_multiplier = 10.0;
      // Deadline tags ride TPROPS for the deadline-aware kinds; the same
      // stage (same seed) runs for every kind, so arrivals stay identical.
      point.config.workload.taggers.push_back(workload::TaggerStage::Deadline(3.0, 200, 7));
      spec.points.push_back(std::move(point));
    }
  }

  const std::vector<sweep::SweepPointResult> results =
      runner.Run(spec, [](std::vector<sweep::SweepPointResult>& rs) {
        for (sweep::SweepPointResult& r : rs) {
          const stats::Histogram& e2e = r.result.metrics->e2e_delay();
          r.scalars["completed"] = static_cast<double>(r.result.metrics->tasks_completed());
          if (e2e.count() > 0) {
            r.scalars["e2e_p99_us"] = static_cast<double>(e2e.Percentile(0.99)) / 1000.0;
            r.scalars["e2e_p999_us"] = static_cast<double>(e2e.Percentile(0.999)) / 1000.0;
          }
          const stats::Histogram& sched = r.result.metrics->sched_delay();
          if (sched.count() > 0) {
            r.scalars["sched_p99_us"] =
                static_cast<double>(sched.Percentile(0.99)) / 1000.0;
          }
        }
      });

  // The end-to-end tail is dominated by the Pareto service samples
  // themselves (identical across kinds); the *scheduling delay* tail is
  // where the disciplines separate, so that is the headline table. The JSON
  // carries both (extra.sched_p99_us, extra.e2e_p99_us / e2e_p999_us).
  for (double util : utilizations) {
    std::printf("\n--- offered load %.0f%% of capacity ---\n", 100.0 * util);
    PrintQuantileHeader("sched delay");
    size_t i = 0;
    for (const DeploymentInfo* system : systems) {
      for (size_t col = 0; col < utilizations.size(); ++col, ++i) {
        if (utilizations[col] == util) {
          PrintQuantileRow(system->canonical_name,
                           results[i].result.metrics->sched_delay());
        }
      }
    }
  }

  std::printf(
      "\nShape check: Draconis lowest of the queueing disciplines into the tail\n"
      "(switch-resident queue, no per-node dispatch). The cFCFS pushers separate\n"
      "in the tail: RackSched's instantaneous power-of-two, Malcolm's\n"
      "sojourn-histogram steering (pays for stale estimates under homogeneous\n"
      "load, wins when nodes diverge), and RackSched-EDF, which reorders within a\n"
      "node by deadline and stretches the delay tail of slack tasks in exchange\n"
      "for the critical ones. RackSched-PS queues nothing past its dispatcher:\n"
      "its elephants share cores and stretch the end-to-end tail instead.\n");
  return 0;
}
