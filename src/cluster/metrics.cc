#include "cluster/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace draconis::cluster {

MetricsHub::MetricsHub(TimeNs measure_start, TimeNs measure_end, size_t num_nodes,
                       size_t priority_levels, TimeNs node_series_bucket)
    : measure_start_(measure_start), measure_end_(measure_end) {
  DRACONIS_CHECK(measure_start >= 0 && measure_end > measure_start);
  priority_queueing_.resize(priority_levels);
  priority_get_task_.resize(priority_levels);
  node_completions_.reserve(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    node_completions_.emplace_back(node_series_bucket);
  }
}

bool MetricsHub::FirstExecution(const net::TaskId& id) {
  if (id.uid < jobs_.size() && id.jid < jobs_[id.uid].size()) {
    const JobBits& job = jobs_[id.uid][id.jid];
    if (id.tid < job.tasks) {
      const uint64_t bit = uint64_t{job.base} + id.tid;
      uint64_t& word = executed_bits_[bit / 64];
      const uint64_t mask = uint64_t{1} << (bit % 64);
      const bool first = (word & mask) == 0;
      word |= mask;
      return first;
    }
  }
  return executed_other_.insert(id).second;
}

void MetricsHub::RegisterJob(uint32_t uid, uint32_t jid, size_t tasks) {
  // Clients number uids and jids densely from 0; anything sparser, or past
  // 2^32 registered tasks, is left to the set.
  constexpr uint32_t kMaxDense = 1 << 16;
  if (uid >= kMaxDense || next_bit_ + tasks > UINT32_MAX) {
    return;
  }
  if (uid >= jobs_.size()) {
    jobs_.resize(uid + 1);
  }
  std::vector<JobBits>& jobs = jobs_[uid];
  if (jid < jobs.size() || jid - jobs.size() > kMaxDense) {
    return;
  }
  jobs.resize(jid + 1);
  jobs[jid] = JobBits{static_cast<uint32_t>(next_bit_), static_cast<uint32_t>(tasks)};
  next_bit_ += tasks;
  executed_bits_.resize((next_bit_ + 63) / 64);
}

void MetricsHub::RecordExecutionStart(const net::TaskInfo& task, TimeNs exec_start) {
  if (!InWindow(task.meta.first_submit_time)) {
    return;
  }
  sched_delay_.Record(std::max<TimeNs>(0, exec_start - task.meta.first_submit_time));
}

void MetricsHub::RecordAssignment(const net::TaskInfo& task, TimeNs assign_time) {
  if (!InWindow(task.meta.first_submit_time) || task.meta.enqueue_time < 0) {
    return;
  }
  const TimeNs delay = std::max<TimeNs>(0, assign_time - task.meta.enqueue_time);
  queueing_delay_.Record(delay);
  if (!priority_queueing_.empty()) {
    const size_t level =
        std::clamp<size_t>(task.tprops, 1, priority_queueing_.size());
    priority_queueing_[level - 1].Record(delay);
  }
}

void MetricsHub::RecordGetTask(uint32_t priority_level, TimeNs delay) {
  get_task_delay_.Record(std::max<TimeNs>(0, delay));
  if (!priority_get_task_.empty()) {
    const size_t level = std::clamp<size_t>(priority_level, 1, priority_get_task_.size());
    priority_get_task_[level - 1].Record(std::max<TimeNs>(0, delay));
  }
}

void MetricsHub::RecordPlacement(net::TaskInfo::Placement placement) {
  const auto index = static_cast<size_t>(placement);
  if (index < 3) {
    ++placement_counts_[index];
  }
}

void MetricsHub::RecordNodeCompletion(uint32_t worker_node, TimeNs at) {
  ++total_node_completions_;
  if (worker_node < node_completions_.size()) {
    node_completions_[worker_node].Record(at);
  }
}

void MetricsHub::RecordEndToEnd(const net::TaskInfo& task, TimeNs completion_time) {
  if (!InWindow(task.meta.first_submit_time)) {
    return;
  }
  const TimeNs delay = std::max<TimeNs>(0, completion_time - task.meta.first_submit_time);
  e2e_delay_.Record(delay);
  if (task.meta.exec_duration > 0) {
    slowdown_milli_.Record(delay * 1000 / task.meta.exec_duration);
  }
  if (fault_start_ < 0) {
    return;
  }
  if (completion_time < fault_start_) {
    e2e_pre_fault_.Record(delay);
    last_completion_before_fault_ = std::max(last_completion_before_fault_, completion_time);
    return;
  }
  if (first_completion_after_fault_ < 0 || completion_time < first_completion_after_fault_) {
    first_completion_after_fault_ = completion_time;
  }
  if (completion_time < fault_clear_) {
    e2e_during_fault_.Record(delay);
  } else {
    e2e_post_fault_.Record(delay);
  }
}

void MetricsHub::ConfigureFaultWindow(TimeNs start, TimeNs clear) {
  DRACONIS_CHECK(start >= 0 && clear >= start);
  fault_start_ = start;
  fault_clear_ = clear;
}

TimeNs MetricsHub::TimeToRecover() const {
  if (fault_start_ < 0 || first_completion_after_fault_ < 0) {
    return -1;
  }
  return first_completion_after_fault_ - fault_start_;
}

TimeNs MetricsHub::UnavailabilityGap() const {
  if (last_completion_before_fault_ < 0 || first_completion_after_fault_ < 0) {
    return -1;
  }
  return first_completion_after_fault_ - last_completion_before_fault_;
}

void MetricsHub::RecordSubmission(TimeNs first_submit) {
  if (InWindow(first_submit)) {
    ++tasks_submitted_;
  }
}

void MetricsHub::RecordTimeoutResubmission() { ++timeout_resubmissions_; }

void MetricsHub::RecordQueueFullRetry() { ++queue_full_retries_; }

void MetricsHub::RecordBusyInterval(TimeNs start, TimeNs end, size_t cores, size_t repeats,
                                    size_t tasks) {
  // Clamp the busy interval to the measurement window.
  const TimeNs lo = std::max(start, measure_start_);
  const TimeNs hi = std::min(end, measure_end_);
  if (hi <= lo) {
    return;
  }
  const TimeNs busy = (hi - lo) * static_cast<TimeNs>(cores);
  total_busy_ += busy;
  if (repeats > 0) {
    wasted_busy_ += busy * static_cast<TimeNs>(repeats) / static_cast<TimeNs>(tasks);
  }
}

const stats::Histogram& MetricsHub::priority_queueing(size_t level_1based) const {
  DRACONIS_CHECK(level_1based >= 1 && level_1based <= priority_queueing_.size());
  return priority_queueing_[level_1based - 1];
}

const stats::Histogram& MetricsHub::priority_get_task(size_t level_1based) const {
  DRACONIS_CHECK(level_1based >= 1 && level_1based <= priority_get_task_.size());
  return priority_get_task_[level_1based - 1];
}

const stats::TimeSeries& MetricsHub::node_completions(uint32_t node) const {
  DRACONIS_CHECK(node < node_completions_.size());
  return node_completions_[node];
}

uint64_t MetricsHub::placements(net::TaskInfo::Placement p) const {
  const auto index = static_cast<size_t>(p);
  return index < 3 ? placement_counts_[index] : 0;
}

double MetricsHub::CompletionThroughput() const {
  const double window = ToSeconds(measure_end_ - measure_start_);
  return window > 0.0 ? static_cast<double>(tasks_completed()) / window : 0.0;
}

}  // namespace draconis::cluster
