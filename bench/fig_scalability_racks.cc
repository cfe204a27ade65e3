// Multi-rack scalability: replaces tab_scalability's extrapolation with a
// measured sweep over a hierarchical topology (docs/topology.md).
//
// Three series:
//  1. "balanced" — racks x executors-per-rack grows to >= 10^5 executors
//     (no-op executors, the default ladder event queue). Clients home
//     round-robin across racks, each rack's offered load sits well below its
//     ToR packet budget, and aggregate decision throughput should grow
//     near-linearly with rack count: racks are independent ToR pipelines, not
//     shards of one switch. No-op executors drop tasks without completing
//     them, so this series reports the pull round-trip instead of e2e.
//  2. "latency" — the same balanced homing with completing executors at a
//     paper-scale rack, so the table carries a real e2e p50/p99 and shows the
//     rack count leaving in-rack latency untouched.
//  3. "skewed" — every client homes on rack 0 and offers more than one rack
//     can serve, so the power-of-two-choices placement layer must forward the
//     overflow across the aggregation tier (cross_rack_fraction > 0), with
//     the forwarded share paying the aggregation-tier hops in its e2e.
//
// Per point the sweep JSON records num_racks, rack_decisions,
// cross_rack_fraction, and the summary/uplink traffic (src/sweep/report.cc).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "topology/topology.h"

using namespace draconis;
using namespace draconis::bench;
using namespace draconis::cluster;

namespace {

enum class Mode { kBalanced, kLatency, kSkewed };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kBalanced:
      return "balanced";
    case Mode::kLatency:
      return "latency";
    case Mode::kSkewed:
      return "skewed";
  }
  return "?";
}

struct RackPoint {
  size_t racks;
  size_t workers_per_rack;
  size_t executors_per_worker;
  // Offered tasks/s per executor (balanced/latency) or total (skewed).
  double offered_tps;
  Mode mode;

  size_t executors() const { return racks * workers_per_rack * executors_per_worker; }
  bool skewed() const { return mode == Mode::kSkewed; }
  bool noop() const { return mode == Mode::kBalanced; }
};

ExperimentConfig PointConfig(const RackPoint& p, TimeNs horizon) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kDraconis;
  config.cluster = topology::ClusterTopology::Uniform(p.racks, p.workers_per_rack,
                                                      p.executors_per_worker);
  config.cluster.client_homing = p.skewed() ? topology::ClientHoming::kFirstRack
                                            : topology::ClientHoming::kRoundRobin;
  const double offered = p.skewed()
                             ? p.offered_tps
                             : p.offered_tps * static_cast<double>(p.executors());
  // A client node is a 150 ns/packet busy server shared by its submissions
  // and the returning acks, so it sustains ~3M tasks/s; provision one client
  // per 1M offered tasks/s so the fleet, not the clients, is what the sweep
  // measures.
  const size_t clients_per_rack = std::max<size_t>(
      4, static_cast<size_t>(offered / static_cast<double>(p.racks) / 1e6) + 1);
  config.num_clients = clients_per_rack * p.racks;
  config.noop_executors = p.noop();
  config.warmup = FromMicros(500);
  config.horizon = horizon;
  // The 50 ms default drain would spend ~25x the measured window on idle
  // executor polls; no-op tasks are done within microseconds of assignment.
  config.drain_margin = FromMicros(50);
  config.max_tasks_per_packet = 1;
  config.seed = 97;

  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = offered;
  config.workload.duration = config.horizon;
  config.workload.tasks_per_job = 1;
  config.workload.service = workload::ServiceTime::Fixed(0);
  config.workload.seed = 97;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  SweepRunner runner("Figure: multi-rack scalability",
                     "measured racks x executors sweep on the hierarchical topology (§8.2)",
                     FromMillis(2));
  runner.ParseFlagsOrExit(argc, argv);

  // Balanced: constant per-executor load (3k tasks/s), rack count doubles up
  // to 107,520 executors. Skewed: one rack's clients offer ~1.2x what rack 0
  // alone can absorb, so placement has to spill.
  std::vector<RackPoint> points;
  if (Quick()) {
    for (size_t racks : {1, 2, 4}) {
      points.push_back({racks, 8, 4, 3000.0, Mode::kBalanced});
    }
    for (size_t racks : {1, 2}) {
      points.push_back({racks, 4, 4, 3000.0, Mode::kLatency});
    }
    points.push_back({2, 4, 4, 6.0e6, Mode::kSkewed});
  } else {
    for (size_t racks : {1, 2, 4, 8, 16}) {
      points.push_back({racks, 420, 16, 3000.0, Mode::kBalanced});
    }
    for (size_t racks : {1, 4}) {
      points.push_back({racks, 10, 16, 3000.0, Mode::kLatency});
    }
    points.push_back({4, 8, 16, 40.0e6, Mode::kSkewed});
  }

  sweep::SweepSpec spec;
  spec.name = "fig_scalability_racks";
  spec.title = "measured racks x executors sweep on the hierarchical topology (§8.2)";
  spec.axis = {"executors", "count"};
  for (const RackPoint& p : points) {
    sweep::SweepPoint point;
    char label[48];
    std::snprintf(label, sizeof(label), "racks-%zu-%s", p.racks, ModeName(p.mode));
    point.label = label;
    point.series = ModeName(p.mode);
    point.x = static_cast<double>(p.executors());
    point.config = PointConfig(p, runner.horizon());
    spec.points.push_back(std::move(point));
  }

  const auto results = runner.Run(spec, [&](std::vector<sweep::SweepPointResult>& rs) {
    for (size_t i = 0; i < rs.size(); ++i) {
      const RackPoint& p = points[i];
      rs[i].scalars["total_executors"] = static_cast<double>(p.executors());
      rs[i].scalars["per_executor_tps"] =
          rs[i].result.throughput_tps / static_cast<double>(p.executors());
      const std::vector<uint64_t>& decisions = rs[i].result.rack_decisions;
      if (!decisions.empty()) {
        uint64_t total = 0;
        for (uint64_t d : decisions) {
          total += d;
        }
        const double mean = static_cast<double>(total) / static_cast<double>(decisions.size());
        const uint64_t max = *std::max_element(decisions.begin(), decisions.end());
        rs[i].scalars["rack_decision_imbalance"] =
            mean > 0.0 ? static_cast<double>(max) / mean : 0.0;
      }
    }
  });

  std::printf("--- balanced (no-op): aggregate decision rate vs rack count ---\n");
  std::printf("%6s %10s %12s %14s %12s %10s %10s\n", "racks", "executors", "offered/s",
              "decisions/s", "per-exec/s", "pull p50", "pull p99");
  for (size_t i = 0; i < points.size(); ++i) {
    const RackPoint& p = points[i];
    if (p.mode != Mode::kBalanced) {
      continue;
    }
    const ExperimentResult& r = results[i].result;
    std::printf("%6zu %10zu %11.1fM %13.1fM %11.1fk %10s %10s\n", p.racks, p.executors(),
                r.offered_tasks_per_second / 1e6, r.throughput_tps / 1e6,
                r.throughput_tps / static_cast<double>(p.executors()) / 1e3,
                FormatDuration(r.metrics->get_task_delay().Percentile(0.50)).c_str(),
                P99OrNone(r.metrics->get_task_delay()).c_str());
  }

  std::printf("\n--- per-rack decision shares (largest balanced point) ---\n");
  for (size_t i = points.size(); i-- > 0;) {
    if (points[i].mode != Mode::kBalanced) {
      continue;
    }
    const ExperimentResult& r = results[i].result;
    uint64_t total = 0;
    for (uint64_t d : r.rack_decisions) {
      total += d;
    }
    for (size_t rack = 0; rack < r.rack_decisions.size(); ++rack) {
      std::printf("  rack %2zu: %9llu decisions (%.1f%%)\n", rack,
                  static_cast<unsigned long long>(r.rack_decisions[rack]),
                  total > 0 ? 100.0 * static_cast<double>(r.rack_decisions[rack]) /
                                  static_cast<double>(total)
                            : 0.0);
    }
    break;
  }

  std::printf("\n--- latency (completing tasks): e2e vs rack count, balanced homing ---\n");
  std::printf("%6s %10s %14s %10s %10s\n", "racks", "executors", "decisions/s", "e2e p50",
              "e2e p99");
  for (size_t i = 0; i < points.size(); ++i) {
    const RackPoint& p = points[i];
    if (p.mode != Mode::kLatency) {
      continue;
    }
    const ExperimentResult& r = results[i].result;
    std::printf("%6zu %10zu %13.2fM %10s %10s\n", p.racks, p.executors(),
                r.throughput_tps / 1e6,
                FormatDuration(r.metrics->e2e_delay().Percentile(0.50)).c_str(),
                P99OrNone(r.metrics->e2e_delay()).c_str());
  }

  std::printf("\n--- skewed: every client homes on rack 0, load > one rack ---\n");
  std::printf("%6s %10s %12s %14s %12s %12s %10s %10s\n", "racks", "executors", "offered/s",
              "decisions/s", "cross-frac", "cross-subs", "e2e p50", "e2e p99");
  for (size_t i = 0; i < points.size(); ++i) {
    const RackPoint& p = points[i];
    if (!p.skewed()) {
      continue;
    }
    const ExperimentResult& r = results[i].result;
    std::printf("%6zu %10zu %11.1fM %13.1fM %12.3f %12llu %10s %10s\n", p.racks,
                p.executors(), r.offered_tasks_per_second / 1e6, r.throughput_tps / 1e6,
                r.cross_rack_fraction,
                static_cast<unsigned long long>(r.cross_rack_submissions),
                FormatDuration(r.metrics->e2e_delay().Percentile(0.50)).c_str(),
                P99OrNone(r.metrics->e2e_delay()).c_str());
  }

  std::printf(
      "\nShape check: per-rack pipelines are independent, so balanced decisions/s\n"
      "should track rack count (near-linear in the table above), and the skewed\n"
      "series should show cross_rack_fraction > 0 once rack 0's queue-depth\n"
      "summaries cross the overflow watermark.\n");
  return 0;
}
