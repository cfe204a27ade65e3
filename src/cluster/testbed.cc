#include "cluster/testbed.h"

#include "common/check.h"

namespace draconis::cluster {

Testbed::Testbed(const TestbedConfig& config)
    : config_(config),
      simulator_(config.sim_queue),
      topology_(core::Topology::Uniform(config.num_workers, config.num_racks)) {
  if (config_.trace.enabled) {
    recorder_ = std::make_unique<trace::Recorder>(config_.trace);
  }
  net::NetworkConfig net_config = config_.network;
  net_config.seed = SeedFor(SeedDomain::kLink);
  net_config.fault_seed = SeedFor(SeedDomain::kFault);
  network_ = std::make_unique<net::Network>(&simulator_, net_config);
  network_->SetRecorder(recorder_.get());
  metrics_ = std::make_unique<MetricsHub>(config_.warmup, config_.horizon, config_.num_workers,
                                          config_.priority_levels, config_.node_series_bucket);
}

uint64_t Testbed::SeedFor(SeedDomain domain, uint64_t index) const {
  // The multipliers predate the Testbed (kLink's came with the per-link
  // streams' re-pin); keeping them bit-identical keeps every pinned golden
  // and published EXPERIMENTS.md number valid.
  switch (domain) {
    case SeedDomain::kLink:
      return config_.seed * 7927 + 37;
    case SeedDomain::kRackSched:
      return config_.seed * 31 + 5;
    case SeedDomain::kSparrow:
      return config_.seed * 131 + index;
    case SeedDomain::kFault:
      return config_.seed * 6151 + 11 + index;
    case SeedDomain::kPlacement:
      // Rack-indexed: a pure function of (seed, index) with a golden-ratio
      // index spread, so rack streams are mutually independent and stable
      // under rack-count changes (pinned in tests/topology_test.cc).
      return config_.seed * 9973 + 257 + index * 0x9E3779B97F4A7C15ULL;
    case SeedDomain::kDag:
      // Client-indexed like kPlacement: driver c's hedge stream depends only
      // on (seed, c), so adding a client never perturbs the others.
      return config_.seed * 12289 + 389 + index * 0x9E3779B97F4A7C15ULL;
  }
  DRACONIS_CHECK_MSG(false, "unknown seed domain");
  return config_.seed;
}

}  // namespace draconis::cluster
