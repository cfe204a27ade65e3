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

namespace {

const HedgePolicy& Checked(const HedgePolicy& hedge) {
  const std::string invalid = hedge.Validate();
  DRACONIS_CHECK_MSG(invalid.empty(), "invalid HedgePolicy: " + invalid);
  return hedge;
}

}  // namespace

FrontierDriver::FrontierDriver(cluster::Testbed* testbed, cluster::Client* client,
                               const DagWorkloadSpec& workload, const HedgePolicy& hedge)
    : simulator_(&testbed->simulator()),
      metrics_(testbed->metrics()),
      client_(client),
      workload_(workload),
      hedge_(Checked(hedge)),
      resample_rng_(testbed->SeedFor(cluster::SeedDomain::kDag, client->uid())),
      observed_latency_(hedge.quantile) {
  DRACONIS_CHECK(metrics_ != nullptr);
}

void FrontierDriver::EnqueueJob(TimeNs at, JobSpec spec) {
  DRACONIS_CHECK_MSG(!started_, "EnqueueJob after Start");
  const std::string invalid = spec.Validate();
  DRACONIS_CHECK_MSG(invalid.empty(), invalid);
  const size_t n = spec.tasks.size();
  size_t edges = 0;
  for (const TaskNode& task : spec.tasks) {
    edges += task.deps.size();
  }
  JobState job;
  job.arrival = at;
  job.remaining = n;
  job.spec = std::move(spec);
  job.graph.assign(2 * n + 1 + edges, 0);
  uint32_t* const pending_deps = job.pending_deps();
  uint32_t* const child_begin = job.child_begin();
  uint32_t* const children = job.children();
  const std::vector<TaskNode>& tasks = job.spec.tasks;
  // A counting sort of the edges by dependency: child_begin[d] first counts
  // d's successors, then (summed) marks the end of d's block; filling the
  // blocks from the back leaves each in task order and moves child_begin[d]
  // to its start.
  for (size_t i = 0; i < n; ++i) {
    pending_deps[i] = static_cast<uint32_t>(tasks[i].deps.size());
    for (uint32_t dep : tasks[i].deps) {
      ++child_begin[dep];
    }
  }
  for (size_t i = 1; i <= n; ++i) {
    child_begin[i] += child_begin[i - 1];
  }
  for (size_t i = n; i-- > 0;) {
    for (uint32_t dep : tasks[i].deps) {
      children[--child_begin[dep]] = static_cast<uint32_t>(i);
    }
  }
  jobs_.push_back(std::move(job));
}

void FrontierDriver::Start() {
  DRACONIS_CHECK_MSG(!started_, "Start called twice");
  started_ = true;
  client_->SetCompletionCallback(
      [this](const net::TaskInfo& task, TimeNs now) { OnCompletion(task, now); });
  for (uint32_t j = 0; j < static_cast<uint32_t>(jobs_.size()); ++j) {
    simulator_->ScheduleAt(jobs_[j].arrival, &job_arrival_, j, 0);
  }
}

void FrontierDriver::StartJob(uint32_t job_index, uint32_t /*unused*/) {
  JobState& job = jobs_[job_index];
  if (metrics_->InWindow(job.arrival)) {
    ++jobs_submitted_;
    tasks_submitted_ += job.spec.tasks.size();
  }
  ready_.clear();
  const uint32_t* const pending_deps = job.pending_deps();
  for (uint32_t i = 0; i < static_cast<uint32_t>(job.tasks()); ++i) {
    if (pending_deps[i] == 0) {
      ready_.push_back(i);
    }
  }
  SubmitFrontier(job_index);
}

void FrontierDriver::SubmitFrontier(uint32_t job_index) {
  DRACONIS_CHECK(!ready_.empty());
  const JobState& job = jobs_[job_index];
  specs_.clear();
  for (uint32_t node_index : ready_) {
    const TaskNode& node = job.spec.tasks[node_index];
    cluster::TaskSpec spec;
    spec.duration = node.duration;
    spec.tprops = node.tprops;
    spec.fn_id = node.fn_id;
    spec.fn_par = node.fn_par;
    specs_.push_back(spec);
  }
  const uint32_t jid = client_->SubmitJob(specs_);
  const TimeNs hedge_at = hedge_.enabled ? simulator_->Now() + HedgeDelay() : 0;
  TaskState* states = inflight_.Open(jid, ready_.size());
  for (uint32_t tid = 0; tid < static_cast<uint32_t>(ready_.size()); ++tid) {
    TaskState& state = states[tid];
    state.job = job_index;
    state.node = ready_[tid];
    if (hedge_.enabled) {
      state.hedge_timer = simulator_->ScheduleAt(hedge_at, this, jid, tid, sim::kCancellable);
    }
  }
}

void FrontierDriver::OnCompletion(const net::TaskInfo& task, TimeNs now) {
  TaskState* state = inflight_.Find(task.id.jid, task.id.tid);
  if (state == nullptr) {
    return;  // not one of ours (the client suppresses duplicates before us)
  }
  const uint32_t job_index = state->job;
  const uint32_t node_index = state->node;
  state->hedge_timer.Cancel();
  inflight_.Close(task.id.jid, task.id.tid);
  // The policy histogram sees every completion (window or not): the hedge
  // delay should track the live latency distribution, not the measured one.
  observed_latency_.Record(now - task.meta.first_submit_time);

  JobState& job = jobs_[job_index];
  DRACONIS_CHECK(job.remaining > 0);
  --job.remaining;
  ready_.clear();
  uint32_t* const pending_deps = job.pending_deps();
  const uint32_t* const child_begin = job.child_begin();
  const uint32_t* const children = job.children();
  for (uint32_t c = child_begin[node_index]; c < child_begin[node_index + 1]; ++c) {
    const uint32_t child = children[c];
    DRACONIS_CHECK(pending_deps[child] > 0);
    if (--pending_deps[child] == 0) {
      ready_.push_back(child);
    }
  }
  if (!ready_.empty()) {
    SubmitFrontier(job_index);
  }
  if (job.remaining == 0) {
    ++jobs_finished_;
    if (metrics_->InWindow(job.arrival)) {
      ++jobs_completed_;
      const TimeNs makespan = now - job.arrival;
      const TimeNs lower_bound = job.spec.CriticalPathNs(finish_);
      makespan_.Record(makespan);
      critical_path_.Record(lower_bound);
      if (lower_bound > 0) {
        stretch_milli_.Record(makespan * 1000 / lower_bound);
      }
    }
  }
}

void FrontierDriver::OnHedgeTimer(uint32_t jid, uint32_t tid) {
  const TaskState* state = inflight_.Find(jid, tid);
  if (state == nullptr) {
    return;  // completed while the timer was in flight
  }
  const TaskNode& node = jobs_[state->job].spec.tasks[state->node];
  TimeNs resampled = -1;
  if (hedge_.resample_service) {
    resampled = workload_.StageService(node.stage).Sample(resample_rng_);
  }
  client_->HedgeTask(net::TaskId{client_->uid(), jid, tid}, resampled);
}

TimeNs FrontierDriver::HedgeDelay() const {
  if (observed_latency_.count() < hedge_.min_samples) {
    return hedge_.initial_delay;
  }
  const auto scaled =
      static_cast<TimeNs>(hedge_.multiplier * static_cast<double>(observed_latency_.Value()));
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
