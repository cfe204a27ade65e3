// The simulated testbed: one context object owning the shared substrate of
// an experiment run — the event engine, the network fabric, the metrics hub,
// the (optional) task-lifecycle recorder, and the rack topology — plus the
// named-domain seed deriver every randomized component draws from.
//
// Every layer of the cluster (clients, executors, the switch pipeline, the
// baseline schedulers and workers) takes a single Testbed* instead of the
// 4-5 loose pointers it used to; a SchedulerDeployment (cluster/deployment.h)
// builds its scheduler on top of one. The Testbed lives in the shared
// substrate library (with MetricsHub) so that both the p4 layer and the
// baselines can link it without a dependency cycle.

#ifndef DRACONIS_CLUSTER_TESTBED_H_
#define DRACONIS_CLUSTER_TESTBED_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "cluster/metrics.h"
#include "common/time.h"
#include "core/topology.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "trace/recorder.h"

namespace draconis::cluster {

// Named seed domains. Each randomized component derives its seed from the
// experiment seed through its own domain, so adding a domain never perturbs
// the streams of the existing ones. The derivations preserve the historical
// per-component constants bit for bit (tests/determinism_test.cc pins
// per-scheduler golden results against them).
enum class SeedDomain {
  kLink,       // per-link fabric jitter: the base that Network::LinkSeed
               // mixes with (src, dst), so a link's stream depends only on
               // (seed, src, dst)
  kRackSched,  // power-of-two sampling
  kSparrow,    // probe targets (per-scheduler-instance via `index`)
  kFault,      // fault-injection decisions (src/fault/); never consumed
               // unless a fault rule actually draws, so a faultless run is
               // bit-identical with or without the domain
  kPlacement,  // cross-rack placement (src/topology/), rack-indexed: rack
               // r's stream depends only on (seed, r), so growing the
               // cluster by a rack never perturbs racks 0..r
  kDag,        // DAG frontier driver (src/dag/), client-indexed: consumed
               // only when a hedge duplicate re-draws its service time, so a
               // hedging-off run is bit-identical with or without the domain
};

// What a worker core spends between a task reaching it and the task's
// service starting. Every kind's workers pay it: the Draconis executors and
// the baselines' workers alike.
inline constexpr TimeNs kPickupOverhead = TimeNs{200};

// The substrate shape: everything the Testbed needs that is independent of
// which scheduler runs on it. RunExperiment fills one from ExperimentConfig;
// tests build small ones directly.
struct TestbedConfig {
  uint64_t seed = 1;
  size_t num_workers = 10;
  size_t num_racks = 3;
  // Event-queue backend for the simulator. Both produce bit-identical runs
  // (sim/event_queue.h); the choice is purely a speed knob.
  sim::QueueBackend sim_queue = sim::kDefaultQueueBackend;
  // Measurement window for the MetricsHub.
  TimeNs warmup = 0;
  TimeNs horizon = FromSeconds(10);
  // > 0 enables per-priority-level histograms.
  size_t priority_levels = 0;
  TimeNs node_series_bucket = kSecond;
  net::NetworkConfig network{};
  // trace.enabled creates the recorder and threads it through the network;
  // sampling is a pure hash of the task id, so results never change.
  trace::TraceConfig trace{};
};

class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  net::Network& network() { return *network_; }
  MetricsHub* metrics() { return metrics_.get(); }
  // Nullable: only non-null when config.trace.enabled.
  trace::Recorder* recorder() { return recorder_.get(); }
  const core::Topology& topology() const { return topology_; }
  const TestbedConfig& config() const { return config_; }

  TimeNs warmup() const { return config_.warmup; }
  TimeNs horizon() const { return config_.horizon; }
  uint64_t seed() const { return config_.seed; }

  // Derives the seed for one randomized component. `index` distinguishes
  // replicated instances within a domain (e.g. Sparrow scheduler #2).
  uint64_t SeedFor(SeedDomain domain, uint64_t index = 0) const;

  // Harvest: hands the hub / recorder over to the ExperimentResult once the
  // run is finished. The testbed must not record after this.
  std::unique_ptr<MetricsHub> TakeMetrics() { return std::move(metrics_); }
  std::unique_ptr<trace::Recorder> TakeRecorder() { return std::move(recorder_); }

 private:
  TestbedConfig config_;
  sim::Simulator simulator_;
  std::unique_ptr<trace::Recorder> recorder_;  // before network_: wired into it
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<MetricsHub> metrics_;
  core::Topology topology_;
};

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_TESTBED_H_
