#include "dag/frontier_driver.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace draconis::dag {

std::string HedgePolicy::Validate() const {
  if (quantile <= 0.0 || quantile >= 1.0) {
    return "hedge policy: quantile must be in (0, 1)";
  }
  if (multiplier <= 0.0) {
    return "hedge policy: multiplier must be > 0";
  }
  if (min_delay < 0 || initial_delay <= 0) {
    return "hedge policy: min_delay must be >= 0 and initial_delay > 0";
  }
  if (min_samples < 1) {
    return "hedge policy: min_samples must be >= 1";
  }
  return "";
}

FrontierDriver::FrontierDriver(cluster::Testbed* testbed, cluster::Client* client,
                               const DagWorkloadSpec& workload, const HedgePolicy& hedge)
    : simulator_(&testbed->simulator()),
      metrics_(testbed->metrics()),
      client_(client),
      workload_(workload),
      hedge_(hedge),
      resample_rng_(testbed->SeedFor(cluster::SeedDomain::kDag, client->uid())) {
  DRACONIS_CHECK(metrics_ != nullptr);
  const std::string invalid = hedge_.Validate();
  DRACONIS_CHECK_MSG(invalid.empty(), "invalid HedgePolicy: " + invalid);
}

void FrontierDriver::EnqueueJob(TimeNs at, JobSpec spec) {
  DRACONIS_CHECK_MSG(!started_, "EnqueueJob after Start");
  const std::string invalid = spec.Validate();
  DRACONIS_CHECK_MSG(invalid.empty(), invalid);
  JobState job;
  job.arrival = at;
  job.remaining = spec.tasks.size();
  job.pending_deps.resize(spec.tasks.size());
  job.children.resize(spec.tasks.size());
  for (size_t i = 0; i < spec.tasks.size(); ++i) {
    job.pending_deps[i] = static_cast<uint32_t>(spec.tasks[i].deps.size());
    for (uint32_t dep : spec.tasks[i].deps) {
      job.children[dep].push_back(static_cast<uint32_t>(i));
    }
  }
  job.spec = std::move(spec);
  jobs_.push_back(std::move(job));
}

void FrontierDriver::Start() {
  DRACONIS_CHECK_MSG(!started_, "Start called twice");
  started_ = true;
  client_->SetCompletionCallback(
      [this](const net::TaskInfo& task, TimeNs now) { OnCompletion(task, now); });
  for (uint32_t j = 0; j < static_cast<uint32_t>(jobs_.size()); ++j) {
    simulator_->ScheduleAt(jobs_[j].arrival, [this, j] { StartJob(j); });
  }
}

void FrontierDriver::StartJob(uint32_t job_index) {
  JobState& job = jobs_[job_index];
  if (metrics_->InWindow(job.arrival)) {
    ++jobs_submitted_;
    tasks_submitted_ += job.spec.tasks.size();
  }
  std::vector<uint32_t> roots;
  for (uint32_t i = 0; i < static_cast<uint32_t>(job.spec.tasks.size()); ++i) {
    if (job.pending_deps[i] == 0) {
      roots.push_back(i);
    }
  }
  SubmitFrontier(job_index, roots);
}

void FrontierDriver::SubmitFrontier(uint32_t job_index, const std::vector<uint32_t>& ready) {
  DRACONIS_CHECK(!ready.empty());
  const JobState& job = jobs_[job_index];
  std::vector<cluster::TaskSpec> specs;
  specs.reserve(ready.size());
  for (uint32_t node_index : ready) {
    const TaskNode& node = job.spec.tasks[node_index];
    cluster::TaskSpec spec;
    spec.duration = node.duration;
    spec.tprops = node.tprops;
    spec.fn_id = node.fn_id;
    spec.fn_par = node.fn_par;
    specs.push_back(spec);
  }
  const uint32_t jid = client_->SubmitJob(specs);
  // One percentile scan per frontier: nothing in the loop records a latency.
  const TimeNs hedge_delay = hedge_.enabled ? HedgeDelay() : 0;
  for (size_t k = 0; k < ready.size(); ++k) {
    const uint64_t key = Key(jid, static_cast<uint32_t>(k));
    TaskState& state = inflight_[key];
    state.job = job_index;
    state.node = ready[k];
    if (hedge_.enabled) {
      state.hedge_timer = simulator_->ScheduleAfter(
          hedge_delay, [this, key] { OnHedgeTimer(key); }, sim::kCancellable);
    }
  }
}

void FrontierDriver::OnCompletion(const net::TaskInfo& task, TimeNs now) {
  auto it = inflight_.find(Key(task.id.jid, task.id.tid));
  if (it == inflight_.end()) {
    return;  // not one of ours (the client suppresses duplicates before us)
  }
  const uint32_t job_index = it->second.job;
  const uint32_t node_index = it->second.node;
  it->second.hedge_timer.Cancel();
  inflight_.erase(it);
  // The policy histogram sees every completion (window or not): the hedge
  // delay should track the live latency distribution, not the measured one.
  observed_latency_.Record(now - task.meta.first_submit_time);

  JobState& job = jobs_[job_index];
  DRACONIS_CHECK(job.remaining > 0);
  --job.remaining;
  std::vector<uint32_t> ready;
  for (uint32_t child : job.children[node_index]) {
    DRACONIS_CHECK(job.pending_deps[child] > 0);
    if (--job.pending_deps[child] == 0) {
      ready.push_back(child);
    }
  }
  if (!ready.empty()) {
    SubmitFrontier(job_index, ready);
  }
  if (job.remaining == 0) {
    ++jobs_finished_;
    if (metrics_->InWindow(job.arrival)) {
      ++jobs_completed_;
      const TimeNs makespan = now - job.arrival;
      const TimeNs lower_bound = job.spec.CriticalPathNs();
      makespan_.Record(makespan);
      critical_path_.Record(lower_bound);
      if (lower_bound > 0) {
        stretch_milli_.Record(makespan * 1000 / lower_bound);
      }
    }
  }
}

void FrontierDriver::OnHedgeTimer(uint64_t key) {
  auto it = inflight_.find(key);
  if (it == inflight_.end()) {
    return;  // completed while the timer was in flight
  }
  const TaskNode& node = jobs_[it->second.job].spec.tasks[it->second.node];
  TimeNs resampled = -1;
  if (hedge_.resample_service) {
    resampled = workload_.StageService(node.stage).Sample(resample_rng_);
  }
  const net::TaskId id{client_->uid(), static_cast<uint32_t>(key >> 32),
                       static_cast<uint32_t>(key & 0xFFFFFFFFu)};
  client_->HedgeTask(id, resampled);
}

TimeNs FrontierDriver::HedgeDelay() const {
  if (observed_latency_.count() < hedge_.min_samples) {
    return hedge_.initial_delay;
  }
  const auto scaled = static_cast<TimeNs>(
      hedge_.multiplier * static_cast<double>(observed_latency_.Percentile(hedge_.quantile)));
  return std::max(scaled, hedge_.min_delay);
}

void FrontierDriver::Harvest(cluster::DagRunStats* out) const {
  out->jobs_submitted += jobs_submitted_;
  out->jobs_completed += jobs_completed_;
  out->tasks_submitted += tasks_submitted_;
  out->makespan.Merge(makespan_);
  out->critical_path.Merge(critical_path_);
  out->stretch_milli.Merge(stretch_milli_);
}

}  // namespace draconis::dag
