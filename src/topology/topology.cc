#include "topology/topology.h"

namespace draconis::topology {

size_t ClusterTopology::total_workers() const {
  size_t total = 0;
  for (const RackSpec& rack : racks) {
    total += rack.num_workers;
  }
  return total;
}

size_t ClusterTopology::total_executors() const {
  size_t total = 0;
  for (const RackSpec& rack : racks) {
    total += rack.executors();
  }
  return total;
}

ClusterTopology ClusterTopology::Uniform(size_t num_racks, size_t workers_per_rack,
                                         size_t executors_per_worker) {
  ClusterTopology topo;
  topo.racks.assign(num_racks, RackSpec{workers_per_rack, executors_per_worker});
  return topo;
}

std::string ClusterTopology::Validate() const {
  if (!enabled()) {
    return "";
  }
  for (size_t r = 0; r < racks.size(); ++r) {
    if (racks[r].num_workers < 1) {
      return "rack " + std::to_string(r) +
             " has no workers (each rack's ToR schedules onto its own executor pool)";
    }
    if (racks[r].executors_per_worker < 1) {
      return "rack " + std::to_string(r) +
             " has no executors per worker (each rack's ToR schedules onto its own "
             "executor pool)";
    }
  }
  if (aggregation_latency < 0) {
    return "aggregation_latency must be >= 0 (a cross-rack hop cannot be shorter than a "
           "same-rack one)";
  }
  if (!(agg_ns_per_byte >= 0.0)) {  // NaN too: the uplink cost casts it to TimeNs
    return "agg_ns_per_byte must be >= 0 (the ns per byte a rack's uplink serializes; 0 is "
           "an uplink of unlimited capacity)";
  }
  return "";
}

}  // namespace draconis::topology
