// Reproduces the paper's §3.3 failover experiment (we label it Fig. 14; the
// paper describes it in prose): mid-run the active Draconis switch fails
// hard, a cold standby is promoted, executors rehome immediately and clients
// rehome through their own timeouts. Queue state on the dead switch is NOT
// replicated — it is reconstructed by client timeout resubmission, which is
// safe because duplicate completions are suppressed (§8.3).
//
// Shape check: zero tasks lost with resubmission on, a bounded
// time-to-recover (the unavailability window is a few client timeouts), and
// post-recovery p99 back within noise of the pre-fault p99.

#include <cstdio>
#include <vector>

#include "bench/common.h"

using namespace draconis;
using namespace draconis::bench;
using namespace draconis::cluster;

namespace {

std::string DurationOrNone(TimeNs t) { return t < 0 ? "(none)" : FormatDuration(t); }

}  // namespace

int main(int argc, char** argv) {
  // Fixed 40 ms horizon even under DRACONIS_BENCH_QUICK: the post-fault
  // phase needs room after the recovery tail to show steady-state latency.
  SweepRunner runner("Figure 14", "§3.3 scheduler failover: recovery after switch failure",
                     FromMillis(40));
  runner.ParseFlagsOrExit(argc, argv);

  // Default plan: the active switch dies halfway through the measurement
  // window. --fault-plan substitutes a custom timeline for the same series.
  const TimeNs warmup = RunWarmup();
  const TimeNs failover_at = warmup + (runner.horizon() - warmup) / 2;
  fault::FaultPlan plan;
  if (!runner.TakeFaultPlan(&plan)) {
    plan.SchedulerFailover(failover_at);
  }

  std::vector<double> loads_ktps = {50, 150, 250};
  if (Quick()) {
    loads_ktps = {150};
  }
  const workload::ServiceTime service = workload::ServiceTime::Fixed(FromMicros(500));

  sweep::SweepSpec spec;
  spec.name = "fig14";
  spec.title = "scheduler failover: recovery after switch failure";
  spec.axis = {"offered load", "ktasks/s"};
  for (const bool faulted : {false, true}) {
    for (double load : loads_ktps) {
      sweep::SweepPoint point;
      point.series = faulted ? "Draconis+failover" : "Draconis";
      point.x = load;
      char label[64];
      std::snprintf(label, sizeof(label), "%s@%.0fk", faulted ? "failover" : "baseline", load);
      point.label = label;
      point.config = SyntheticConfig(SchedulerKind::kDraconis, load * 1000.0, service, 42, 10,
                                     runner.horizon());
      if (faulted) {
        point.config.fault_plan = plan;
        // During->post boundary: reconstruction-by-resubmission needs a few
        // client timeouts (~2.5 ms each at 500 us tasks), so completions up
        // to 10 ms past the onset count as the recovery tail, not as
        // post-recovery steady state.
        point.config.fault_settle = FromMillis(10);
      }
      spec.points.push_back(std::move(point));
    }
  }

  const std::vector<sweep::SweepPointResult> results = runner.Run(spec);

  const size_t n = loads_ktps.size();
  std::printf("%-12s %12s %12s %12s %10s %10s %8s %8s %8s\n", "load", "recover", "unavail",
              "resubmits", "lost", "rehomes", "pre p99", "dur p99", "post p99");
  for (size_t col = 0; col < n; ++col) {
    const sweep::SweepPointResult& base = results[col];
    const sweep::SweepPointResult& fail = results[n + col];
    const RecoveryStats& rec = fail.result.recovery;
    const MetricsHub& m = *fail.result.metrics;
    char load[24];
    std::snprintf(load, sizeof(load), "%.0fk", loads_ktps[col]);
    std::printf("%-12s %12s %12s %12llu %10llu %10llu %8s %8s %8s\n", load,
                DurationOrNone(m.TimeToRecover()).c_str(),
                DurationOrNone(m.UnavailabilityGap()).c_str(),
                static_cast<unsigned long long>(m.timeout_resubmissions()),
                static_cast<unsigned long long>(rec.tasks_lost),
                static_cast<unsigned long long>(m.client_rehomes() + m.executor_rehomes()),
                P99OrNone(m.e2e_pre_fault()).c_str(), P99OrNone(m.e2e_during_fault()).c_str(),
                P99OrNone(m.e2e_post_fault()).c_str());
    std::printf("%-12s %12s %12s %12llu %10s %10s %8s %8s %8s   (no-fault baseline)\n", "",
                "-", "-",
                static_cast<unsigned long long>(
                    base.result.metrics->timeout_resubmissions()),
                "-", "-", "-", "-", P99OrNone(base.result.metrics->e2e_delay()).c_str());
  }

  std::printf(
      "\nShape check: zero lost tasks (timeout resubmission reconstructs the dead\n"
      "switch's queue, duplicates suppressed per §8.3); recovery within a few client\n"
      "timeouts; post-recovery p99 within noise of the no-fault baseline p99.\n");
  return 0;
}
