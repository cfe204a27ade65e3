// Physical multi-rack cluster topology (docs/topology.md).
//
// A ClusterTopology describes N racks, each fronted by its own ToR Draconis
// switch (one SwitchPipeline + DraconisProgram instance per rack) with a
// private executor pool, joined by an aggregation tier. Packets whose
// endpoints sit in different racks pay two extra aggregation-tier hops plus
// (optionally) serialization on a per-rack uplink of finite capacity — see
// net::NetworkConfig::aggregation_latency / agg_ns_per_byte.
//
// This is deliberately distinct from core::Topology, which is the *locality
// policy's* worker -> data-rack map; ClusterTopology shards the scheduler
// itself. An empty (disabled) ClusterTopology leaves every experiment
// bit-identical to the single-switch configuration the determinism goldens
// pin.

#ifndef DRACONIS_TOPOLOGY_TOPOLOGY_H_
#define DRACONIS_TOPOLOGY_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace draconis::topology {

// One rack: a ToR Draconis switch fronting a private executor pool.
struct RackSpec {
  size_t num_workers = 0;
  size_t executors_per_worker = 0;

  size_t executors() const { return num_workers * executors_per_worker; }
};

// How clients are homed onto racks. Round-robin spreads client c to rack
// c % racks (the balanced default); first-rack homes every client on rack 0,
// which exists to stress the overflow balancer (the hot rack must shed load
// through the placement layer for the cluster to scale).
enum class ClientHoming { kRoundRobin, kFirstRack };

struct ClusterTopology {
  // Empty = topology disabled: the experiment runs the legacy single-switch
  // layout built from ExperimentConfig::num_workers/executors_per_worker.
  std::vector<RackSpec> racks;

  // Aggregation tier: a cross-rack packet pays 2 x aggregation_latency (ToR
  // -> aggregation -> ToR) on top of the normal edge hops.
  TimeNs aggregation_latency = FromMicros(1);
  // Per-rack uplink serialization (ns per wire byte) through the aggregation
  // tier, modeled as a single busy server per source rack; 0 = infinite
  // uplink capacity.
  double agg_ns_per_byte = 0.0;

  ClientHoming client_homing = ClientHoming::kRoundRobin;

  bool enabled() const { return !racks.empty(); }
  size_t num_racks() const { return racks.size(); }
  size_t total_workers() const;
  size_t total_executors() const;

  // N identical racks.
  static ClusterTopology Uniform(size_t num_racks, size_t workers_per_rack,
                                 size_t executors_per_worker);

  // Empty string when consistent, a descriptive error otherwise. An empty
  // (disabled) topology is always valid.
  std::string Validate() const;
};

}  // namespace draconis::topology

#endif  // DRACONIS_TOPOLOGY_TOPOLOGY_H_
