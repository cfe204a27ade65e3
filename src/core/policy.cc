#include "core/policy.h"

#include <algorithm>

#include "common/check.h"

namespace draconis::core {

PriorityPolicy::PriorityPolicy(size_t levels) : levels_(levels) {
  DRACONIS_CHECK_MSG(levels >= 1, "priority policy needs at least one level");
}

size_t PriorityPolicy::QueueForTask(const net::TaskInfo& task) const {
  // TPROPS holds the 1-based priority level; clamp malformed values into
  // range rather than dropping the task.
  const uint32_t level = std::clamp<uint32_t>(task.tprops, 1, static_cast<uint32_t>(levels_));
  return level - 1;
}

bool ResourcePolicy::ShouldAssign(QueueEntry& entry, uint32_t exec_props) {
  const bool satisfied = (entry.task.tprops & ~exec_props) == 0;
  if (!satisfied) {
    ++entry.skip_counter;
  }
  return satisfied;
}

LocalityPolicy::LocalityPolicy(const Topology* topology, Limits limits)
    : topology_(topology), limits_(limits) {
  DRACONIS_CHECK(topology != nullptr);
  DRACONIS_CHECK_MSG(limits.rack_start_limit <= limits.global_start_limit,
                     "rack_start_limit must not exceed global_start_limit");
}

bool LocalityPolicy::ShouldAssign(QueueEntry& entry, uint32_t exec_props) {
  const uint32_t data_node = entry.task.tprops;
  const uint32_t exec_node = exec_props;

  if (exec_node == data_node) {
    entry.task.meta.placement = net::TaskInfo::Placement::kLocal;
    return true;
  }

  // §5.3: the counter is incremented, then examined.
  ++entry.skip_counter;
  const uint32_t skips = entry.skip_counter;

  if (skips <= limits_.rack_start_limit) {
    return false;  // still insisting on the data-local node
  }
  if (skips <= limits_.global_start_limit) {
    if (topology_->SameRack(exec_node, data_node)) {
      entry.task.meta.placement = net::TaskInfo::Placement::kSameRack;
      return true;
    }
    return false;
  }
  // Past the global limit: run anywhere.
  entry.task.meta.placement = ClassifyPlacement(*topology_, data_node, exec_node);
  return true;
}

net::TaskInfo::Placement ClassifyPlacement(const Topology& topology, uint32_t data_node,
                                           uint32_t exec_node) {
  if (exec_node == data_node) {
    return net::TaskInfo::Placement::kLocal;
  }
  if (topology.SameRack(exec_node, data_node)) {
    return net::TaskInfo::Placement::kSameRack;
  }
  return net::TaskInfo::Placement::kRemote;
}

}  // namespace draconis::core
