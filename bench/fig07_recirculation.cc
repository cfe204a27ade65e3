// Reproduces paper Fig. 7: the share of processed packets that are
// recirculations, and the resulting task drops, for R2P2-1, R2P2-3 and
// Draconis with the 250 us workload as cluster load grows.
//
// Paper headline: R2P2-1 recirculates ~50% of all packets at 93% load (75%
// at 97%) and drops tasks; R2P2-3 and Draconis recirculate (almost) nothing.
// Draconis' recirculations are 0.02-0.05% in the paper — pointer repairs
// only.

#include <cstdio>
#include <vector>

#include "bench/common.h"

using namespace draconis;
using namespace draconis::bench;
using namespace draconis::cluster;

int main(int argc, char** argv) {
  SweepRunner runner("Figure 7", "recirculated packets and task drops vs load, 250 us tasks");
  runner.ParseFlagsOrExit(argc, argv);

  const workload::ServiceTime service = workload::ServiceTime::Fixed(FromMicros(250));
  std::vector<double> utils = {0.70, 0.82, 0.88, 0.93, 0.97};
  if (Quick()) {
    utils = {0.82, 0.93};
  }

  struct System {
    const char* name;
    SchedulerKind kind;
    uint32_t jbsq_k;
  };
  const System systems[] = {
      {"R2P2-1", SchedulerKind::kR2P2, 1},
      {"R2P2-3", SchedulerKind::kR2P2, 3},
      {"Draconis", SchedulerKind::kDraconis, 0},
  };

  sweep::SweepSpec spec;
  spec.name = "fig07";
  spec.title = "recirculated packets and task drops vs load, 250 us tasks";
  spec.axis = {"cluster load", "fraction"};
  for (const System& system : systems) {
    for (double util : utils) {
      sweep::SweepPoint point;
      point.series = system.name;
      point.x = util;
      char label[64];
      std::snprintf(label, sizeof(label), "%s@%.0f%%", system.name, util * 100);
      point.label = label;
      point.config = SyntheticConfig(system.kind, UtilToTps(util, service.Mean()), service,
                                     42, 10, runner.horizon());
      if (system.jbsq_k > 0) {
        point.config.jbsq_k = system.jbsq_k;
      }
      spec.points.push_back(std::move(point));
    }
  }

  const auto results = runner.Run(spec);

  std::printf("%-12s %6s %18s %14s %16s\n", "system", "load", "recirc share", "drop share",
              "p99 sched delay");
  size_t i = 0;
  for (const System& system : systems) {
    for (double util : utils) {
      const ExperimentResult& result = results[i++].result;
      std::printf("%-12s %5.0f%% %17.3f%% %13.3f%% %16s\n", system.name, util * 100,
                  result.switch_counters.RecirculationShare() * 100, result.drop_fraction * 100,
                  FormatDuration(result.metrics->sched_delay().Percentile(0.99)).c_str());
    }
  }

  std::printf(
      "\nShape check: R2P2-1's recirculation share climbs into the tens of percent and\n"
      "it drops tasks at high load; R2P2-3 ~0%%; Draconis recirculates only pointer\n"
      "repairs (well under 1%%) and never drops.\n");
  return 0;
}
